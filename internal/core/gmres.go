package core

import (
	"fmt"
	"math"

	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/obs"
)

// Result reports a solve.
type Result struct {
	// X is the computed solution in the ORIGINAL coordinates.
	X []float64
	// Converged reports whether the relative residual reached Tol.
	Converged bool
	// Restarts is the number of restart cycles executed.
	Restarts int
	// Iters is the total number of inner iterations (basis vectors
	// generated past the initial residual).
	Iters int
	// RelRes is the final relative residual of the prepared (balanced,
	// permuted) system, the quantity the convergence test uses.
	RelRes float64
	// History records the relative residual after every restart cycle,
	// the last one included: len(History) == Restarts unless the solve
	// returns an error.
	History []float64
	// Stats is the ledger of modeled communication/computation, covering
	// the whole solve.
	Stats *gpu.Stats
	// Canceled reports that Options.Ctx was canceled (or its deadline
	// expired) before the solve finished; X holds the best iterate
	// reached and RelRes its true relative residual.
	Canceled bool
	// Faults, when non-nil, reports the injected faults this solve
	// observed and the recovery actions taken (device re-partitions,
	// checkpoint restores, transfer retries). Nil for fault-free runs.
	Faults *FaultReport
	// Precision, when non-nil, reports what the mixed/adaptive precision
	// policy did: window counts per width, compressed transfers, and
	// FP64 refinement steps. Nil for fp64 solves.
	Precision *PrecisionReport
	// StepHalvings counts the times a CA-GMRES cycle's first window was
	// rank deficient and the cycle reran at half the step (see Options.S):
	// a 15 → 8 → 4 cascade at one boundary is two. Zero for GMRES.
	StepHalvings int
}

// Phase names used by the solvers on the ledger.
const (
	PhaseSpMV  = "spmv"
	PhaseMPK   = "mpk"
	PhaseOrth  = "orth"
	PhaseBOrth = "borth"
	PhaseTSQR  = "tsqr"
	PhaseLSQ   = "lsq"
	PhaseVec   = "vec"
)

func init() {
	gpu.RegisterPhases(PhaseSpMV, PhaseMPK, PhaseOrth, PhaseBOrth, PhaseTSQR, PhaseLSQ, PhaseVec)
}

// GMRES solves the prepared problem with restarted GMRES(m), generating
// one Krylov vector per iteration with the distributed SpMV and
// orthogonalizing it against all previous vectors with MGS (BLAS-1, one
// reduction per dot product) or CGS (BLAS-2, fused projection) — the
// baseline of every comparison in the paper.
func GMRES(p *Problem, opts Options) (*Result, error) {
	opts, err := Check("gmres", opts, p.A)
	if err != nil {
		return nil, err
	}
	orth := arnoldiStep(arnoldiCGS)
	if opts.Ortho == "MGS" {
		orth = arnoldiMGS
	}
	return solveHealing(p, opts, "gmres", 1, gmresSolver{orth})
}

// gmresSolver is GMRES as the engine sees it: one Arnoldi cycle per
// restart, nothing carried from one boundary to the next.
type gmresSolver struct{ orth arnoldiStep }

func (g gmresSolver) cycle(e *engine, restart int, beta, relres float64) error {
	rel := relres
	k := e.arnoldi(g.orth, beta, func(k int, _ []float64, est float64) bool {
		rel = est / e.bNorm
		e.ctx.HostComputeOn(PhaseLSQ, float64(6*(k+1)))
		e.em.emit(obs.Record{Kind: "step", Restart: restart, Step: k + 1, RelRes: rel})
		return rel <= e.opts.Tol
	})
	e.commit(restart, k, rel, lsqFlops(e.m))
	return nil
}

// arnoldiMGS orthogonalizes V[:,k+1] against V[:,0..k] by modified
// Gram-Schmidt: one global reduction per previous vector plus the norm,
// exactly the Orth kernel whose latency dominates GMRES in Figure 14's
// MGS rows. hcol receives [h_0k ... h_kk, h_{k+1,k}].
func arnoldiMGS(v *dist.Vectors, k int, hcol []float64, _ *cycleScratch) error {
	for l := 0; l <= k; l++ {
		r := v.DotCols(l, k+1, PhaseOrth)
		hcol[l] = r
		v.AxpyCol(-r, l, k+1, PhaseOrth)
	}
	nrm := v.NormCol(k+1, PhaseOrth)
	hcol[k+1] = nrm
	if nrm <= 1e-14*la.Nrm2(hcol[:k+1]) {
		return fmt.Errorf("core: happy breakdown at Arnoldi step %d", k)
	}
	v.ScaleCol(1/nrm, k+1, PhaseOrth)
	return nil
}

// arnoldiCGS orthogonalizes with classical Gram-Schmidt: a single fused
// device kernel computes all projections and the norm, one all-reduce and
// one broadcast round total (the paper's optimized DGEMV kernel), then the
// Pythagorean identity provides the post-update norm. The host-side
// combine overlaps the device update.
func arnoldiCGS(v *dist.Vectors, k int, hcol []float64, sc *cycleScratch) error {
	ctx := v.Ctx
	sum := sc.sum[:k+2]
	sc.cgs.v, sc.cgs.k = v, k
	ctx.AllReduce(PhaseOrth, sum, gpu.Elem64, sc.cgsPartial)
	proj := sum[:k+1]
	vnorm2 := sum[k+1]
	copy(hcol[:k+1], proj)

	bc := ctx.Broadcast(PhaseOrth, k+2, gpu.Elem64)
	ctx.Launch(PhaseOrth, sc.cgsUpdate, bc)

	newNorm2 := vnorm2 - la.Dot(proj, proj)
	var nrm float64
	if newNorm2 <= 1e-8*vnorm2 {
		// Cancellation: recompute honestly (extra round), the fused-CGS
		// stability check of the paper's footnote 5.
		nrm = v.NormCol(k+1, PhaseOrth)
	} else {
		nrm = math.Sqrt(newNorm2)
	}
	hcol[k+1] = nrm
	if nrm <= 1e-14*math.Sqrt(vnorm2) {
		return fmt.Errorf("core: happy breakdown at Arnoldi step %d", k)
	}
	v.ScaleCol(1/nrm, k+1, PhaseOrth)
	return nil
}

// cgsPartialDev is arnoldiCGS's reduction on device d. Column k+1 is
// v_{k+1} itself, so one sweep over V[:,0..k+1] yields the projections
// and, last, the squared norm.
func (sc *cycleScratch) cgsPartialDev(d int, part []float64) gpu.Work {
	local, k := sc.cgs.v.Local[d], sc.cgs.k
	vk := local.Col(k + 1)
	la.GemvT(1, local.ColView(0, k+2), vk, 0, part)
	return gpu.GemvT(len(vk), k+2)
}

// cgsUpdateDev is arnoldiCGS's update on device d:
// v_{k+1} -= V[:,0..k] * proj, the projections the reduction left in sum.
func (sc *cycleScratch) cgsUpdateDev(d int) gpu.Work {
	local, k := sc.cgs.v.Local[d], sc.cgs.k
	vk := local.Col(k + 1)
	la.Gemv(-1, local.ColView(0, k+1), sc.sum[:k+1], 1, vk)
	return gpu.Gemv(len(vk), k+1)
}
