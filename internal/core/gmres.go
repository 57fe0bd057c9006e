package core

import (
	"context"
	"fmt"
	"math"

	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/obs"
	"cagmres/internal/ortho"
)

// Options configures the solvers.
type Options struct {
	// M is the restart length (the paper sweeps 30..180).
	M int
	// S is the CA-GMRES step/block size (ignored by GMRES).
	S int
	// Tol is the relative residual reduction target; the paper declares
	// convergence at 1e-4.
	Tol float64
	// MaxRestarts bounds the outer loop.
	MaxRestarts int
	// Ortho selects the orthogonalization: for GMRES, "MGS" or "CGS"
	// (the Arnoldi variants of Figure 14); for CA-GMRES, a TSQR strategy
	// name, optionally "2x"-prefixed ("MGS", "CGS", "CholQR", "SVQR",
	// "CAQR", "2xCGS", "2xCholQR", ...).
	Ortho string
	// BOrth selects the block-orthogonalization variant for CA-GMRES:
	// "CGS" (paper default) or "MGS".
	BOrth string
	// Basis selects the CA-GMRES Krylov basis: "newton" (default, with
	// Leja-ordered Ritz shifts harvested from the first restart) or
	// "monomial".
	Basis string
	// OrthoImpl, when non-nil, overrides Ortho with an explicit TSQR
	// implementation (the benchmark harness uses it to wrap strategies
	// with error instrumentation for Figure 13).
	OrthoImpl ortho.TSQR
	// AdaptiveS enables the adaptive step-size scheme the paper lists as
	// future work (its reference [23]): when a basis window turns out
	// numerically rank deficient — the monomial/Newton basis grew too
	// ill-conditioned for the chosen s — CA-GMRES halves the step size
	// and retries instead of discarding the window or failing, restoring
	// s on later restarts when windows factor at first attempt again.
	AdaptiveS bool
	// Telemetry, when non-nil, receives a convergence-telemetry record
	// stream: per inner step (GMRES) or matrix-powers window (CA-GMRES),
	// per restart cycle, and a final "done" record whose RelRes matches
	// the returned Result. Every record carries the ledger's modeled
	// clock at emission. A nil sink disables telemetry at zero cost.
	Telemetry obs.Sink
	// Overlap enables the overlapped stream schedule on the device
	// context for this solve: halo transfers overlap local SpMV in the
	// matrix powers kernel, host-side Hessenberg/Givens work overlaps
	// device GEMMs, and modeled time becomes the critical path through
	// the stream dependency DAG (Context.OverlappedTime). Off by default:
	// the synchronous barrier schedule, identical to previous behavior.
	Overlap bool
	// Profile, when non-nil, re-targets the device context at this
	// machine profile for the solve: cost model and interconnect topology
	// swap together before the ledger resets (see gpu.Profile). Profiles
	// reorder modeled time, never arithmetic — iterates and convergence
	// histories are bit-identical across profiles. Nil keeps whatever
	// profile the context already carries (the paper's M2090 host-hub by
	// default).
	Profile *gpu.Profile
	// Ctx, when non-nil, makes the solve cancelable: the solvers check it
	// at every restart boundary (and CA-GMRES additionally between
	// matrix-powers windows) and, once it is canceled or past its
	// deadline, stop early and return the best-so-far Result with
	// Canceled set. A nil Ctx solves to convergence or MaxRestarts, as
	// before. This is what lets the internal/sched scheduler enforce
	// per-job deadlines without tearing down the device context.
	Ctx context.Context
	// Precision selects the element-width policy of the CA basis
	// pipeline: "fp64" (default, the historical full-double solver,
	// bit-identical to before this option existed), "mixed" (fp32 basis
	// generation with FP64 correction at every restart boundary —
	// iterative refinement with a narrow inner solver), or "adaptive"
	// (start narrow while the residual is large, tighten toward fp64
	// near convergence, driven by the restart-boundary true residual
	// and per-window orthogonality-loss telemetry). Whatever the mode,
	// convergence is only ever declared from the FP64-recomputed true
	// residual. GMRES supports only "fp64". See NormalizePrecision.
	Precision string
}

// canceled reports whether the solve's optional context has been
// canceled or has exceeded its deadline.
func (o *Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o *Options) defaults() {
	if o.M == 0 {
		o.M = 30
	}
	if o.S == 0 {
		o.S = 10
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 500
	}
	if o.Ortho == "" {
		o.Ortho = "CGS"
	}
	if o.BOrth == "" {
		o.BOrth = "CGS"
	}
	if o.Basis == "" {
		o.Basis = "newton"
	}
	if o.Precision == "" {
		o.Precision = PrecisionFP64
	}
}

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
	// History records the relative residual after every restart.
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

// GMRES solves the prepared problem with restarted GMRES(m), generating
// one Krylov vector per iteration with the distributed SpMV and
// orthogonalizing it against all previous vectors with MGS (BLAS-1, one
// reduction per dot product) or CGS (BLAS-2, fused projection) — the
// baseline of every comparison in the paper.
func GMRES(p *Problem, opts Options) (*Result, error) {
	opts.defaults()
	if opts.Ortho != "MGS" && opts.Ortho != "CGS" {
		return nil, fmt.Errorf("core: GMRES supports Ortho MGS or CGS, got %q", opts.Ortho)
	}
	if prec, err := NormalizePrecision(opts.Precision); err != nil {
		return nil, err
	} else if prec != PrecisionFP64 {
		// The precision policy narrows the CA basis pipeline; plain GMRES
		// has no window structure to refine over, so it stays fp64.
		return nil, fmt.Errorf("core: GMRES supports only fp64 precision, got %q", prec)
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

func (g gmresSolver) cycle(e *engine, restart int, beta, relres float64) (outcome, error) {
	rel := relres
	k := e.arnoldi(g.orth, beta, func(k int, _ []float64, est float64) bool {
		rel = est / e.bNorm
		e.ctx.HostComputeOn(PhaseLSQ, float64(6*(k+1)))
		e.em.emit(obs.Record{Kind: "step", Restart: restart, Step: k + 1, RelRes: rel})
		return rel <= e.opts.Tol
	})
	e.commit(restart, k, rel, lsqFlops(e.m))
	return advance, nil
}

// negateInto sets column jr := column jb - column jr on every device
// (used to turn A*x into the residual b - A*x).
func negateInto(w *dist.Vectors, jr, jb int) {
	w.Ctx.Launch(PhaseVec, func(d int) gpu.Work {
		r := w.Local[d].Col(jr)
		b := w.Local[d].Col(jb)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		return gpu.Work{Flops: float64(len(r)), Bytes: 24 * float64(len(r))}
	})
}

// copyScaled sets dst column jd := alpha * src column js across devices.
func copyScaled(src *dist.Vectors, js int, dst *dist.Vectors, jd int, alpha float64) {
	src.Ctx.Launch(PhaseVec, func(d int) gpu.Work {
		s := src.Local[d].Col(js)
		t := dst.Local[d].Col(jd)
		for i := range s {
			t[i] = alpha * s[i]
		}
		return gpu.Work{Flops: float64(len(s)), Bytes: 16 * float64(len(s))}
	})
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
	ctx.AllReduce(PhaseOrth, sum, gpu.Elem64, func(d int, part []float64) gpu.Work {
		vk := v.Local[d].Col(k + 1)
		prev := v.Local[d].ColView(0, k+1)
		la.ParallelGemvT(prev, vk, part[:k+1])
		part[k+1] = la.Dot(vk, vk)
		rows := float64(len(vk))
		return gpu.Work{Flops: 2 * rows * float64(k+2), Bytes: 8 * rows * float64(k+3)}
	})
	proj := sum[:k+1]
	vnorm2 := sum[k+1]
	copy(hcol[:k+1], proj)

	bc := ctx.Broadcast(PhaseOrth, k+2, gpu.Elem64)
	ctx.Launch(PhaseOrth, func(d int) gpu.Work {
		vk := v.Local[d].Col(k + 1)
		prev := v.Local[d].ColView(0, k+1)
		la.Gemv(-1, prev, proj, 1, vk)
		return gpu.Work{Flops: 2 * float64(len(vk)) * float64(k+1), Bytes: 8 * float64(len(vk)) * float64(k+3)}
	}, bc)

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
