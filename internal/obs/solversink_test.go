package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// oracleTracer mints ids and solver spans the way the first SolverSink
// did, through fmt: the oracle of the strconv and fixed-buffer version.
// It draws from its own source, seeded like the tracer under test, so
// the two id streams agree only if both draw the same bytes in the same
// order and render them the same way.
type oracleTracer struct{ rng *rand.Rand }

func (o *oracleTracer) hex(n int) string {
	for {
		b := make([]byte, n)
		o.rng.Read(b)
		zero := true
		for _, c := range b {
			if c != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		return fmt.Sprintf("%0*x", 2*n, b)
	}
}

func (o *oracleTracer) child(parent Span, name, kind string) Span {
	return Span{TraceID: parent.TraceID, SpanID: o.hex(8), Parent: parent.SpanID, Name: name, Kind: kind}
}

// spans replays recs through the first SolverSink's span logic.
func (o *oracleTracer) spans(parent Span, recs []Record) []Span {
	var out []Span
	restart, open, phaseStart := -1, false, 0.0
	var restartSpan Span
	closeRestart := func(end float64) {
		if open {
			restartSpan.VEnd = end
			out = append(out, restartSpan)
			open = false
		}
	}
	mkChild := func(name, kind string) Span {
		s := o.child(parent, name, kind)
		s.Virtual = true
		return s
	}
	for _, rec := range recs {
		switch rec.Kind {
		case "step", "window", "cycle":
			if rec.Restart != restart || !open {
				closeRestart(phaseStart)
				restart = rec.Restart
				restartSpan = mkChild(fmt.Sprintf("restart %d", rec.Restart), KindSolver)
				restartSpan.VStart = phaseStart
				restartSpan.SetAttr("restart", fmt.Sprintf("%d", rec.Restart))
				open = true
			}
			s := o.child(restartSpan, fmt.Sprintf("%s %d", rec.Kind, rec.Step), KindSolver)
			s.Virtual = true
			s.VStart, s.VEnd = phaseStart, rec.Clock
			s.SetAttr("relres", fmt.Sprintf("%g", rec.RelRes))
			if rec.TSQR != "" {
				s.SetAttr("tsqr", rec.TSQR)
			}
			if rec.OrthoLoss > 0 {
				s.SetAttr("ortho_loss", fmt.Sprintf("%g", rec.OrthoLoss))
			}
			out = append(out, s)
			phaseStart = rec.Clock
		case "restart":
			closeRestart(rec.Clock)
			s := mkChild(fmt.Sprintf("restart %d boundary", rec.Restart), KindSolver)
			s.VStart, s.VEnd = phaseStart, rec.Clock
			s.SetAttr("relres", fmt.Sprintf("%g", rec.RelRes))
			out = append(out, s)
			phaseStart = rec.Clock
		case "checkpoint", "repartition":
			s := mkChild(rec.Kind, KindHeal)
			s.VStart, s.VEnd = rec.Clock, rec.Clock
			s.SetAttr("restart", fmt.Sprintf("%d", rec.Restart))
			if rec.Kind == "repartition" {
				s.SetAttr("survivors", fmt.Sprintf("%d", rec.Step))
			}
			out = append(out, s)
		case "done":
			closeRestart(rec.Clock)
			phaseStart = rec.Clock
		}
	}
	return out
}

// solverRecords is a seeded telemetry stream over every record kind,
// with residuals at fmt's %g edges: exponent switches, subnormals, the
// largest float, signed zero, infinities and NaN.
func solverRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	values := []float64{0, math.Copysign(0, -1), 1, 0.1, 1.0 / 3, 1e-4, 1e-5, 123456, 1e20, 1e21, 1e-300,
		5e-324, math.MaxFloat64, -2.5e-7, math.Inf(1), math.Inf(-1), math.NaN()}
	kinds := []string{"step", "step", "window", "cycle", "restart", "checkpoint", "repartition", "done"}
	recs := make([]Record, n)
	restart, clock := 0, 0.0
	for i := range recs {
		if rng.Intn(6) == 0 {
			restart++
		}
		clock += rng.Float64() * 1e-3
		r := Record{Kind: kinds[rng.Intn(len(kinds))], Restart: restart, Step: rng.Intn(200) - 2, Clock: clock,
			RelRes: values[rng.Intn(len(values))]}
		if rng.Intn(2) == 0 {
			r.OrthoLoss = values[rng.Intn(len(values))]
		}
		if rng.Intn(3) == 0 {
			r.TSQR = "CholQR"
		}
		recs[i] = r
	}
	return recs
}

// TestSolverSinkMatchesOracle: a seeded tracer's root and span ids, the
// solver spans' names, clocks and attrs, and the records forwarded to
// the next sink are exactly the fmt-based oracle's.
func TestSolverSinkMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		recs := solverRecords(seed, 400)
		tr := NewTracerSeeded(nil, seed)
		root := tr.Root("solve", "")
		jt := NewJobTrace(tr, root)
		var forwarded []Record
		sink := jt.SolverSink(tr, root, "job-7", 2, SinkFunc(func(r Record) { forwarded = append(forwarded, r) }))
		for _, r := range recs {
			sink.Emit(r)
		}

		o := &oracleTracer{rand.New(rand.NewSource(seed))}
		want := Span{Name: "solve", Kind: KindRequest, Virtual: true, TraceID: o.hex(16)}
		want.SpanID = o.hex(8)
		if !reflect.DeepEqual(root, want) {
			t.Fatalf("seed %d: root %+v, oracle %+v", seed, root, want)
		}
		if got, want := jt.Spans()[1:], o.spans(root, recs); !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d: span %d\n got  %+v\n want %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d spans, oracle %d", seed, len(got), len(want))
		}
		for i, r := range forwarded {
			r.TraceID, r.JobID, r.Attempt = "", "", 0
			// Printed, so that NaN residuals compare equal.
			if fmt.Sprint(recs[i]) != fmt.Sprint(r) || forwarded[i].TraceID != root.TraceID || forwarded[i].JobID != "job-7" || forwarded[i].Attempt != 2 {
				t.Fatalf("seed %d: forwarded record %d = %+v", seed, i, forwarded[i])
			}
		}
		if len(forwarded) != len(recs) {
			t.Fatalf("seed %d: forwarded %d of %d records", seed, len(forwarded), len(recs))
		}
	}
}

// TestSolverSinkAllocations bounds what one step record costs the trace:
// its span id, its name and its relres string, one attrs map and its
// share of the span list's growth.
func TestSolverSinkAllocations(t *testing.T) {
	tr := NewTracerSeeded(nil, 1)
	root := tr.Root("solve", "")
	sink := NewJobTrace(tr, root).SolverSink(tr, root, "job", 1, nil)
	rec := Record{Kind: "window", Restart: 3, Step: 45, Clock: 1, RelRes: 1.2345e-5, TSQR: "CholQR"}
	sink.Emit(rec) // opens the restart span
	const bound = 5
	if got := testing.AllocsPerRun(200, func() { rec.Clock++; sink.Emit(rec) }); got > bound {
		t.Errorf("%v allocations per record, want at most %d", got, bound)
	} else {
		t.Logf("%v allocations per record", got)
	}
}

// BenchmarkSolverSink times one window record through the job trace's
// solver sink: the span minted, named and attributed, and recorded.
func BenchmarkSolverSink(b *testing.B) {
	tr := NewTracerSeeded(nil, 1)
	root := tr.Root("solve", "")
	rec := Record{Kind: "window", Restart: 3, Step: 45, RelRes: 1.2345e-5, TSQR: "CholQR"}
	var sink Sink
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%maxJobSpans == 0 { // a fresh job before the span cap drops records
			sink = NewJobTrace(tr, root).SolverSink(tr, root, "job", 1, nil)
		}
		rec.Clock++
		sink.Emit(rec)
	}
}
