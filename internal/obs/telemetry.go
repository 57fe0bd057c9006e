package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Record is one convergence-telemetry event. The solvers emit a stream
// of these through a Sink: per inner step (GMRES) or per matrix-powers
// window (CA-GMRES), per restart, and one final "done" record whose
// RelRes matches the returned Result. Clock is the modeled wall clock of
// the solve so far — the ledger's TotalTime at emission, monotone by
// construction.
type Record struct {
	// Kind is "step" (one Arnoldi iteration), "window" (one CA
	// matrix-powers window), "cycle" (end of a restart cycle's basis
	// build), "restart" (true residual at a restart boundary), or "done".
	Kind string `json:"kind"`
	// Solver is "gmres" or "cagmres".
	Solver string `json:"solver"`
	// Restart is the restart cycle index (0-based).
	Restart int `json:"restart"`
	// Step is the inner position: the Arnoldi step, or the number of
	// basis vectors completed after a CA window.
	Step int `json:"step"`
	// Clock is the modeled seconds charged to the ledger so far.
	Clock float64 `json:"clock"`
	// RelRes is the relative residual (estimate for step/window records,
	// true residual for restart/done records).
	RelRes float64 `json:"relres"`
	// OrthoLoss is ||I - Q'Q||_F of the relevant basis or window, when
	// the emitter measured it (0 otherwise).
	OrthoLoss float64 `json:"ortho_loss,omitempty"`
	// TSQR names the factorization strategy of a CA window.
	TSQR string `json:"tsqr,omitempty"`
	// Precision names the precision level active when the record was
	// emitted ("fp64", "fp32", "fp32+bf16"). Empty for solvers and
	// record kinds that predate the precision policy, keeping fp64
	// streams byte-identical to earlier releases.
	Precision string `json:"precision,omitempty"`
	// TraceID, JobID and Attempt correlate the record with the request
	// trace that owns the solve: chaos re-runs and healed retries of the
	// same job are distinguishable by attempt. All three are absent from
	// records emitted outside the serving stack, keeping standalone
	// telemetry streams byte-identical to earlier releases.
	TraceID string `json:"trace_id,omitempty"`
	JobID   string `json:"job_id,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// Sink consumes telemetry records. Implementations must be safe for use
// from a single solver goroutine; they need not be concurrency-safe
// unless documented. A nil Sink disables telemetry.
type Sink interface {
	Emit(Record)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Record)

// Emit implements Sink.
func (f SinkFunc) Emit(r Record) { f(r) }

// MultiSink fans one record out to several sinks (nils are skipped).
func MultiSink(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	return SinkFunc(func(r Record) {
		for _, s := range live {
			s.Emit(r)
		}
	})
}

// JSONLSink writes records as JSON lines. Safe for concurrent use. The
// first write error sticks and is reported by Err/Close; later Emits are
// dropped (telemetry must never fail a solve).
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink wraps a writer. The caller owns the writer's lifetime;
// Close only reports the sticky error (it does not close the writer).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Err returns the sticky write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close reports the sticky error (the underlying writer is not closed).
func (s *JSONLSink) Close() error { return s.Err() }

// Buckets for the convergence metrics: orthogonality loss spans machine
// epsilon to O(1) breakdown.
var orthoLossBuckets = ExpBuckets(1e-16, 10, 17)

// ConvergenceSink returns a Sink that folds every record into the
// registry's convergence metrics — record counters by kind, the latest
// relative residual and orthogonality loss, restart/iteration gauges,
// and an orthogonality-loss histogram — and then forwards to next (which
// may be nil).
func (r *Registry) ConvergenceSink(next Sink) Sink {
	return SinkFunc(func(rec Record) {
		r.CounterL("solver_telemetry_records_total",
			"Telemetry records emitted by the solver, by kind.",
			L("kind", rec.Kind, "solver", rec.Solver)).Inc()
		r.Gauge("solver_relres",
			"Latest relative residual reported by the solver.").Set(rec.RelRes)
		r.Gauge("solver_modeled_seconds",
			"Modeled solve clock at the latest telemetry record.").Set(rec.Clock)
		r.Gauge("solver_restarts",
			"Restart cycle index of the latest telemetry record.").Set(float64(rec.Restart))
		if rec.OrthoLoss > 0 {
			r.Gauge("solver_ortho_loss",
				"Latest measured orthogonality loss ||I - Q'Q||_F.").Set(rec.OrthoLoss)
			r.Histogram("solver_ortho_loss_hist",
				"Distribution of measured orthogonality losses.",
				orthoLossBuckets).Observe(rec.OrthoLoss)
		}
		if rec.Precision != "" && rec.Kind == "window" {
			r.CounterL("solver_precision_windows_total",
				"CA matrix-powers windows generated, by precision level.",
				L("width", rec.Precision)).Inc()
		}
		if rec.Kind == "done" {
			r.Gauge("solver_iterations",
				"Total inner iterations of the finished solve.").Set(float64(rec.Step))
		}
		if next != nil {
			next.Emit(rec)
		}
	})
}
