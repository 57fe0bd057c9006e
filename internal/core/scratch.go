package core

import (
	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// cycleScratch holds the per-restart work buffers of the solvers' hot
// loops: the current Hessenberg column, the host-side result of the fused
// CGS reduction, the incremental Givens solver and orthoLoss's Gram
// matrices. One is built per solve attempt — the float buffers in the host
// memory of the attempt's workspace — and every restart cycle of the
// attempt reuses it.
type cycleScratch struct {
	hcol []float64 // m+2 entries: the Hessenberg column being built
	sum  []float64 // m+2 entries: host-side combine of device partials
	giv  *la.GivensQR

	ws    *gpu.Workspace
	m     int
	grams []float64 // 2(m+1)^2 entries, taken from ws on orthoLoss's first call
}

// newScratch builds the scratch for restart length m in ws.
func newScratch(ws *gpu.Workspace, m int) *cycleScratch {
	return &cycleScratch{
		hcol: ws.Floats(gpu.HostDevice, m+2),
		sum:  ws.Floats(gpu.HostDevice, m+2),
		ws:   ws,
		m:    m,
	}
}

// givens returns the scratch's incremental Givens solver, reset for a new
// restart cycle with initial residual beta.
func (sc *cycleScratch) givens(m int, beta float64) *la.GivensQR {
	if sc.giv == nil || sc.giv.Size() < m {
		sc.giv = la.NewGivensQR(m, beta)
		return sc.giv
	}
	sc.giv.Reset(beta)
	return sc.giv
}

// gram returns orthoLoss's two c x c matrices (c <= m+1), the first zeroed.
// A solve nobody measures never takes their memory.
func (sc *cycleScratch) gram(c int) (g, tmp la.Dense) {
	if sc.grams == nil {
		sc.grams = sc.ws.Floats(gpu.HostDevice, 2*(sc.m+1)*(sc.m+1))
	}
	half := len(sc.grams) / 2
	g = la.Dense{Rows: c, Cols: c, Stride: c, Data: sc.grams[:c*c]}
	tmp = la.Dense{Rows: c, Cols: c, Stride: c, Data: sc.grams[half : half+c*c]}
	g.Zero()
	return g, tmp
}
