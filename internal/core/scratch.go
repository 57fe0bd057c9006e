package core

import (
	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// cycleScratch holds the per-restart work buffers of the solvers' hot
// loops: the current Hessenberg column, the host-side reduction combine
// buffer, the per-device partials of the fused CGS kernel, the byte
// vector of the communication rounds and the incremental Givens solver.
// One is built per solve attempt — the float buffers in the attempt's
// workspace, host-side ones in the host's memory and each device's
// partials in its own — and every restart cycle of the attempt reuses it.
type cycleScratch struct {
	hcol  []float64   // m+2 entries: the Hessenberg column being built
	sum   []float64   // m+2 entries: host-side combine of device partials
	bytes []int       // per-device byte vector for comm rounds
	dev   [][]float64 // per-device fused-kernel partials, m+2 entries each
	giv   *la.GivensQR
}

// newScratch builds the scratch for restart length m on ng devices in ws.
func newScratch(ws *gpu.Workspace, m, ng int) *cycleScratch {
	sc := &cycleScratch{
		hcol:  ws.Floats(gpu.HostDevice, m+2),
		sum:   ws.Floats(gpu.HostDevice, m+2),
		bytes: make([]int, ng),
		dev:   make([][]float64, ng),
	}
	for d := range sc.dev {
		sc.dev[d] = ws.Floats(d, m+2)
	}
	return sc
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
