package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"cagmres/internal/gpu"
)

// JobTrace collects one request's span tree — the root request span, the
// queue/lease/heal spans the scheduler records, the solver-phase spans
// derived from telemetry — plus the job's gpu.Stats ledger, and renders
// them as a spans JSONL stream or as one self-contained Chrome trace
// whose device lanes reconcile exactly with the ledger.
//
// The ledger arrives by reference, not copy: Pool.Release swaps a fresh
// Stats into the context (ResetStats), so the pointer captured at job
// completion is an immutable per-job record.
type JobTrace struct {
	mu      sync.Mutex
	root    Span
	spans   []Span // children, in Add order
	dropped int
	stats   *gpu.Stats
	tracer  *Tracer
}

// maxJobSpans bounds a single job's span list so a pathological solve
// (millions of steps) cannot hold the server's memory hostage. Drops are
// counted and surfaced as a root attribute.
const maxJobSpans = 4096

// NewJobTrace starts a trace owned by the given root span. The tracer is
// retained only for span accounting (trace_spans_total); it may be nil.
func NewJobTrace(t *Tracer, root Span) *JobTrace {
	return &JobTrace{root: root, tracer: t}
}

// Root returns the root span as currently recorded.
func (jt *JobTrace) Root() Span {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.root
}

// TraceID returns the trace id shared by every span of the job.
func (jt *JobTrace) TraceID() string { return jt.Root().TraceID }

// Add records one finished child span. Spans past the cap are dropped
// (counted), never reordered.
func (jt *JobTrace) Add(s Span) {
	jt.mu.Lock()
	if len(jt.spans) >= maxJobSpans {
		jt.dropped++
		jt.mu.Unlock()
		return
	}
	jt.spans = append(jt.spans, s)
	jt.mu.Unlock()
	if jt.tracer != nil {
		jt.tracer.CountSpan()
	}
}

// SetRootAttr annotates the root span.
func (jt *JobTrace) SetRootAttr(k, v string) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.root.SetAttr(k, v)
}

// AttachStats binds the job's per-solve ledger (captured from
// Result.Stats after the finishing attempt). The ledger supplies the
// device lanes of the Chrome export and the root span's virtual extent.
func (jt *JobTrace) AttachStats(s *gpu.Stats) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.stats = s
}

// Stats returns the attached ledger (nil until the job finishes).
func (jt *JobTrace) Stats() *gpu.Stats {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.stats
}

// FinishRoot closes the root span: end is the wall-clock Unix time, vend
// the modeled duration of the finishing solve (0 when the job never ran).
// The root is widened to cover every direct child, so the nesting
// invariant LintSpans enforces holds structurally even when the wall
// clock wobbles between stamps.
func (jt *JobTrace) FinishRoot(end, vend float64) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.root.End = end
	jt.root.VEnd = vend
	for _, s := range jt.spans {
		if s.End > jt.root.End {
			jt.root.End = s.End
		}
		if s.Start != 0 && s.Start < jt.root.Start {
			jt.root.Start = s.Start
		}
		if s.Virtual && s.VEnd > jt.root.VEnd {
			jt.root.VEnd = s.VEnd
		}
	}
	if jt.dropped > 0 {
		jt.root.SetAttr("spans_dropped", strconv.Itoa(jt.dropped))
	}
}

// Spans returns the full tree, root first, as one flat slice.
func (jt *JobTrace) Spans() []Span {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	out := make([]Span, 0, len(jt.spans)+1)
	out = append(out, jt.root)
	out = append(out, jt.spans...)
	return out
}

// WriteSpansJSONL writes the span tree as JSON lines, root first — the
// stream cmd/obslint -spans validates.
func (jt *JobTrace) WriteSpansJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range jt.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// Chrome-export lanes. The wall-clock serving lanes (pid 0, relative to
// the root span start) and the modeled-time lanes (pid 1, seconds of the
// finishing solve's ledger) are separate processes because their x-axes
// are different clocks. In pid 1 the solver-phase spans get one row and
// the ledger replay (gpu.ChromeTrace.Ledger: comm 0, host 1, device d at
// 2+d) is shifted up by one so nothing collides.
const (
	requestPid    = 0
	modeledPid    = 1
	solverLane    = 0
	ledgerLaneOff = 1
)

// WriteChromeTrace renders the stitched request trace: pid 0 carries the
// wall-clock spans (request root, queue, lease, heal) with timestamps
// relative to the root start; pid 1 carries the modeled-time story — the
// solver-phase spans from telemetry on one lane and the job ledger
// replayed by the same gpu.ChromeTrace.Ledger as gpu.WriteChromeTrace,
// so the per-(device,phase) slice durations sum to Stats.DevicePhase
// exactly.
func (jt *JobTrace) WriteChromeTrace(w io.Writer) error {
	all, stats := jt.Spans(), jt.Stats()
	root, spans := all[0], all[1:]
	var file gpu.ChromeTrace
	spanArgs := func(s Span) map[string]any {
		a := map[string]any{"span_id": s.SpanID}
		for k, v := range s.Attrs {
			a[k] = v
		}
		return a
	}

	// --- pid 0: wall-clock serving lanes -------------------------------
	file.Name(requestPid, 0, "process_name", "request "+root.TraceID)
	file.Name(requestPid, 0, "thread_name", "request")
	file.Slice(requestPid, 0, root.Name, root.Kind, 0, max(root.End, root.Start)-root.Start, spanArgs(root))
	for _, s := range spans {
		if s.Start == 0 { // virtual-only span; rendered on pid 1
			continue
		}
		file.Slice(requestPid, 0, s.Name, s.Kind, max(s.Start-root.Start, 0), max(s.End, s.Start)-s.Start, spanArgs(s))
	}

	// --- pid 1: modeled-time solver + device lanes ---------------------
	file.Name(modeledPid, 0, "process_name", "modeled time")
	file.Name(modeledPid, solverLane, "thread_name", "solver phases")
	if root.Virtual {
		file.Slice(modeledPid, solverLane, root.Name, root.Kind, 0, root.VEnd, spanArgs(root))
	}
	for _, s := range spans {
		if s.Virtual {
			file.Slice(modeledPid, solverLane, s.Name, s.Kind, s.VStart, max(s.VEnd, s.VStart)-s.VStart, spanArgs(s))
		}
	}
	if stats != nil {
		file.Ledger(modeledPid, ledgerLaneOff, stats.Trace())
	}
	return file.Write(w)
}

// SolverSink adapts the solver's telemetry stream into trace spans: each
// record is stamped with the trace/job/attempt correlation fields and
// forwarded to next (which may be nil), and the stream's clock deltas
// become solver-phase spans — one per restart cycle (parenting its
// window/step spans) and instantaneous heal marks for checkpoint and
// repartition records. All spans are virtual-clock only; the record clock
// is the ledger's TotalTime, monotone by construction.
//
// The returned sink is used from a single solver goroutine, matching the
// Sink contract; the spans land in jt under its own lock.
func (jt *JobTrace) SolverSink(t *Tracer, parent Span, jobID string, attempt int, next Sink) Sink {
	type state struct {
		restart     int
		restartSpan Span
		open        bool
		phaseStart  float64 // clock at the previous record
	}
	st := &state{restart: -1}

	closeRestart := func(end float64) {
		if st.open {
			st.restartSpan.VEnd = end
			jt.Add(st.restartSpan)
			st.open = false
		}
	}

	return SinkFunc(func(rec Record) {
		rec.TraceID = parent.TraceID
		rec.JobID = jobID
		rec.Attempt = attempt

		mkChild := func(name, kind string) Span {
			s := t.Child(parent, name, kind)
			s.Virtual = true
			return s
		}

		switch rec.Kind {
		case "step", "window", "cycle":
			if rec.Restart != st.restart || !st.open {
				closeRestart(st.phaseStart)
				st.restart = rec.Restart
				restart := strconv.Itoa(rec.Restart)
				st.restartSpan = mkChild("restart "+restart, KindSolver)
				st.restartSpan.VStart = st.phaseStart
				st.restartSpan.Attrs = map[string]string{"restart": restart}
				st.open = true
			}
			s := t.Child(st.restartSpan, rec.Kind+" "+strconv.Itoa(rec.Step), KindSolver)
			s.Virtual = true
			s.VStart, s.VEnd = st.phaseStart, rec.Clock
			s.Attrs = map[string]string{"relres": formatG(rec.RelRes)}
			if rec.TSQR != "" {
				s.Attrs["tsqr"] = rec.TSQR
			}
			if rec.OrthoLoss > 0 {
				s.Attrs["ortho_loss"] = formatG(rec.OrthoLoss)
			}
			jt.Add(s)
			st.phaseStart = rec.Clock
		case "restart":
			closeRestart(rec.Clock)
			s := mkChild("restart "+strconv.Itoa(rec.Restart)+" boundary", KindSolver)
			s.VStart, s.VEnd = st.phaseStart, rec.Clock
			s.Attrs = map[string]string{"relres": formatG(rec.RelRes)}
			jt.Add(s)
			st.phaseStart = rec.Clock
		case "checkpoint", "repartition":
			s := mkChild(rec.Kind, KindHeal)
			s.VStart, s.VEnd = rec.Clock, rec.Clock
			s.Attrs = map[string]string{"restart": strconv.Itoa(rec.Restart)}
			if rec.Kind == "repartition" {
				s.Attrs["survivors"] = strconv.Itoa(rec.Step)
			}
			jt.Add(s)
		case "done":
			closeRestart(rec.Clock)
			st.phaseStart = rec.Clock
		}

		if next != nil {
			next.Emit(rec)
		}
	})
}

// formatG renders x as fmt's %g does, the shortest representation that
// reads back exactly, with the string its only allocation.
func formatG(x float64) string {
	var buf [32]byte
	return string(strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
}

// ReconcileDeviceLanes checks the stitched trace invariant directly from
// a span tree's attached ledger: for every tracked device and phase, the
// sum of that device's kernel-event durations with that phase name equals
// DevicePhase(d, phase).DeviceTime. The sums share accumulation order
// with the ledger, so equality is exact in float64, not approximate.
// Returns a non-nil error naming the first mismatched (device, phase).
func ReconcileDeviceLanes(stats *gpu.Stats) error {
	if stats == nil {
		return fmt.Errorf("obs: no ledger attached")
	}
	type key struct {
		dev   int
		phase string
	}
	sums := map[key]float64{}
	for _, e := range stats.Trace() {
		if e.Kind != "kernel" || e.Device < 0 {
			continue
		}
		sums[key{e.Device, e.Phase}] += e.Time
	}
	keys := make([]key, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dev != keys[j].dev {
			return keys[i].dev < keys[j].dev
		}
		return keys[i].phase < keys[j].phase
	})
	for _, k := range keys {
		want := stats.DevicePhase(k.dev, k.phase).DeviceTime
		if got := sums[k]; got != want {
			return fmt.Errorf("obs: device %d phase %q lane sum %.17g != ledger %.17g",
				k.dev, k.phase, got, want)
		}
	}
	return nil
}
