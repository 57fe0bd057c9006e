package core

import (
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/obs"
)

// emitter stamps solver telemetry records with the solver name and the
// ledger's modeled clock before handing them to the configured sink. A
// nil emitter (telemetry disabled) makes every call a no-op, so the
// solvers emit unconditionally and pay nothing when no sink is set.
type emitter struct {
	sink   obs.Sink
	solver string
	ctx    *gpu.Context
}

// newEmitter returns nil when sink is nil, which disables telemetry.
func newEmitter(sink obs.Sink, solver string, ctx *gpu.Context) *emitter {
	if sink == nil {
		return nil
	}
	return &emitter{sink: sink, solver: solver, ctx: ctx}
}

// enabled reports whether telemetry consumers exist; the solvers use it
// to skip diagnostic-only work (orthogonality measurements) that would
// otherwise burn host cycles for nobody.
func (e *emitter) enabled() bool { return e != nil }

// emit fills Solver and Clock and forwards the record. Clock is the
// ledger's TotalTime at emission — it only ever accumulates, so the
// stream's clock is monotone by construction.
func (e *emitter) emit(r obs.Record) {
	if e == nil {
		return
	}
	r.Solver = e.solver
	r.Clock = e.ctx.Stats().TotalTime()
	e.sink.Emit(r)
}

// orthoLoss computes ||I - Q'Q||_F of a distributed window (per-device
// row panels of Q, at most m+1 columns). Host-side diagnostic for
// telemetry and the precision policy only — it is never charged to the
// ledger, and the solvers only call it when one of them is listening. The
// two Gram matrices are the scratch's, so a call allocates nothing.
func (sc *cycleScratch) orthoLoss(w []*la.Dense) float64 {
	if len(w) == 0 || w[0].Cols == 0 {
		return 0
	}
	c := w[0].Cols
	g, tmp := sc.gram(c)
	for _, p := range w {
		la.Syrk(p, &tmp)
		for j := 0; j < c; j++ {
			la.Axpy(1, tmp.Col(j), g.Col(j))
		}
	}
	var sum float64
	for j := 0; j < c; j++ {
		for i := 0; i < c; i++ {
			d := g.At(i, j)
			if i == j {
				d--
			}
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}
