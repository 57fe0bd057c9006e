package core

import (
	"cagmres/internal/dist"
	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/obs"
	"cagmres/internal/ortho"
)

// The solver engine: Figure 2 of the paper keeps GMRES's restart loop,
// true residual, small least-squares solve and x update and swaps only
// the cycle that builds the basis, so there is one restart driver and two
// basis builders (Arnoldi step loop, matrix-powers window) — DESIGN.md §4.

// outcome is what a cycle tells the driver to do next.
type outcome int

const (
	advance outcome = iota // basis committed; on to the next boundary
	// retry: nothing committed and the cycle changed its own configuration
	// (smaller step, wider precision); x is unchanged, so the driver
	// revisits the same boundary and the restart does not count.
	retry
	stop // canceled inside the cycle; keep what it committed
)

// cycler is the solver-supplied half of a restart: called with the
// boundary's normalized residual in V[:,0] (norm beta, relative norm
// relres), it builds basis vectors, feeds their Hessenberg columns to the
// scratch's Givens solver, and hands the result to engine.commit.
type cycler interface {
	cycle(e *engine, restart int, beta, relres float64) (outcome, error)
}

// boundaryKeeper is the one hook the driver offers a cycler that carries
// state from one restart boundary to the next (CA-GMRES: shift schedule,
// adaptive step, precision policy); GMRES does not implement it.
type boundaryKeeper interface {
	// begin builds the attempt's state, rewound to ck when it is captured.
	begin(e *engine, ck *checkpoint)
	// save adds that state to the checkpoint the driver just captured.
	save(ck *checkpoint)
	// observe sees a boundary's FP64 true residual (retried: the boundary
	// is being revisited) and returns its restart record's precision tag.
	observe(relres float64, retried bool) string
	// finish completes the result and returns the done record's tag.
	finish(res *Result) string
}

// krylov is what a basis is built in. The solvers reach it through the
// engine; RitzValues uses it bare.
type krylov struct {
	ctx *gpu.Context
	m   int
	mpk *dist.MPK
	V   *dist.Vectors
	sc  *cycleScratch
}

// newKrylov builds the basis storage for restart length m in ws, the
// workspace the caller took from p.Ctx and releases when it returns:
// nothing that outlives the caller may point into it. One depth-s
// distribution serves the matrix powers kernel and, read up to its
// owned-row prefix, every plain SpMV.
func newKrylov(p *Problem, ws *gpu.Workspace, m, s int) *krylov {
	return &krylov{
		ctx: p.Ctx,
		m:   m,
		mpk: dist.NewMPKIn(ws, p.distributed(s)),
		V:   dist.NewVectorsIn(ws, p.Ctx, p.Layout, m+1),
		sc:  newScratch(ws, m, s, p.Ctx.NumDevices),
	}
}

// orthoScratch builds the attempt's ortho scratch in its workspace, sized
// for windows of up to s columns against up to m+1 previous ones: the
// strategies bound to it run every window of the attempt without
// allocating. A GMRES attempt never builds one.
func (kr *krylov) orthoScratch() *ortho.Scratch {
	return ortho.NewScratch(kr.sc.ws, kr.sc.s, kr.m+1)
}

// arnoldiStep orthogonalizes V[:,k+1] against V[:,0..k], filling hcol
// with [h_0k ... h_kk, h_{k+1,k}]; a non-nil error is a happy breakdown.
type arnoldiStep func(v *dist.Vectors, k int, hcol []float64, sc *cycleScratch) error

// arnoldi is the Arnoldi step loop: up to m steps of SpMV + orth from the
// normalized V[:,0] of norm beta, each Hessenberg column absorbed by the
// Givens solver. each sees the column and the new residual-norm estimate
// and returns true to stop: the caller's convergence test, and its place
// for per-step charges and records. Returns the number of steps taken.
func (kr *krylov) arnoldi(orth arnoldiStep, beta float64, each func(k int, hcol []float64, est float64) bool) int {
	giv := kr.sc.givens(kr.m, beta)
	for k := 0; k < kr.m; k++ {
		kr.mpk.SpMV(kr.V, k, kr.V, k+1, PhaseSpMV)
		hcol := kr.sc.hcol[:k+2]
		err := orth(kr.V, k, hcol, kr.sc)
		// The Givens update is tiny host work; under overlap it rides the
		// host stream while the devices run the next SpMV.
		stop := each(k, hcol, giv.Append(hcol))
		if err != nil || stop {
			// Happy breakdown: the Krylov space is invariant; the projection
			// column is still valid (its subdiagonal entry is numerically
			// zero), so solve with what we have.
			return k + 1
		}
	}
	return kr.m
}

// keepHessenberg is the per-step hook of an Arnoldi run whose Hessenberg
// matrix is wanted afterwards (for Ritz values): it stores each column in
// h and stops once the residual estimate falls to absTol.
func keepHessenberg(h *la.Dense, absTol float64) func(int, []float64, float64) bool {
	return func(k int, hcol []float64, est float64) bool {
		copy(h.Col(k), hcol)
		return est <= absTol
	}
}

// ritzMatrix copies the leading k x k block of h, whose eigenvalues are
// the Ritz values after k steps, and charges their computation. A
// non-finite entry means the basis overflowed (after iters iterations):
// NaN must not reach the eigensolver or the Leja ordering.
func (kr *krylov) ritzMatrix(h *la.Dense, k, iters int) (*la.Dense, error) {
	hk := la.NewDense(k, k)
	for j := 0; j < k; j++ {
		for i := 0; i <= j+1 && i < k; i++ {
			if nonFinite(h.At(i, j)) {
				return nil, &BreakdownError{Iter: iters, Stage: "basis"}
			}
			hk.Set(i, j, h.At(i, j))
		}
	}
	kr.ctx.HostComputeOn(PhaseLSQ, 20*float64(k*k*k))
	return hk, nil
}

// window is the CA window: MPK generates basis vectors done+1..done+steps
// (Newton shifts, monomial when nil), BOrth projects them against the
// basis so far, TSQR orthogonalizes them among themselves, and their
// Hessenberg columns are recovered into h — untouched when TSQR fails.
// Returns the window's per-device panels either way.
func (kr *krylov) window(h *la.Dense, done, steps int, shifts []complex128, tsqr ortho.TSQR, borth ortho.BOrth) ([]*la.Dense, error) {
	bhat := kr.mpk.Generate(kr.V, done, steps, shifts, PhaseMPK)
	q := done + 1
	win := view(kr.sc.win, kr.V, q, q+steps)
	c := borth.Project(kr.ctx, view(kr.sc.prev, kr.V, 0, q), win, PhaseBOrth)
	r, err := tsqr.Factor(kr.ctx, win, PhaseTSQR)
	if err != nil {
		return win, err
	}
	// The change-of-basis algebra is host work; under overlap it runs
	// while the devices start the next window's exchange.
	kr.sc.updateHessenberg(h, bhat, c, r, q, steps)
	kr.ctx.HostComputeOn(PhaseLSQ, 2*float64(q+steps)*float64(steps)*float64(q+steps))
	return win, nil
}

// lsqFlops is the modeled host cost of the least-squares solve over a
// (k+1) x k Hessenberg matrix.
func lsqFlops(k int) float64 { return 3 * float64(k+1) * float64(k+1) }

// engine is one solve attempt: the Krylov workspace plus what only a
// linear solve needs.
type engine struct {
	*krylov
	p     *Problem
	opts  *Options
	W     *dist.Vectors // x (0), b (1), r (2)
	em    *emitter
	bNorm float64
	res   *Result
}

// attempt is one solve attempt on the problem's current device context,
// resuming from the checkpoint when one is captured; guardFaults makes it
// the solvers' recovery boundary. The attempt lives in the context's
// workspace and gives it back however it ends (a device-loss panic
// included); what it returns — and what it leaves in ck — is copied out.
// It does not reset the ledger — solveHealing owns it.
func attempt(p *Problem, opts *Options, solver string, depth int, s cycler, ck *checkpoint) (res *Result, err error) {
	defer guardFaults(&err)
	ws := p.Ctx.TakeWorkspace()
	defer ws.Release()
	e := &engine{
		krylov: newKrylov(p, ws, opts.M, depth),
		p:      p,
		opts:   opts,
		W:      dist.NewVectorsIn(ws, p.Ctx, p.Layout, 3),
		em:     newEmitter(opts.Telemetry, solver, p.Ctx),
		bNorm:  la.Nrm2(p.B),
		res:    &Result{Stats: p.Ctx.Stats()},
	}
	e.W.SetColFromHost(1, p.B)
	return e.drive(ck, s)
}

// residual computes r = b - A x in FP64 and returns its norm and relative
// norm; a non-finite one is a breakdown — stop instead of iterating on
// garbage.
func (e *engine) residual() (beta, relres float64, err error) {
	e.mpk.SpMV(e.W, 0, e.W, 2, PhaseSpMV)
	e.sc.negateInto(e.W, 2, 1)
	beta = e.W.NormCol(2, PhaseVec)
	relres = beta / e.bNorm
	if nonFinite(relres) {
		err = &BreakdownError{Iter: e.res.Iters, Stage: "residual"}
	}
	return beta, relres, err
}

// commit ends a cycle that built k basis vectors and reached residual
// rel: count, report, solve the least-squares problem the Givens solver
// accumulated (charged lsqFlops), update x. The update's broadcast
// depends on the host stream, so the solve's cost is on the critical path
// only when the devices catch up first.
func (e *engine) commit(restart, k int, rel, lsqFlops float64) {
	e.res.Iters += k
	if e.em.enabled() {
		e.em.emit(obs.Record{Kind: "cycle", Restart: restart, Step: k, RelRes: rel,
			OrthoLoss: e.sc.orthoLoss(view(e.sc.prev, e.V, 0, k+1))})
	}
	y := e.sc.giv.Solve()
	e.ctx.HostComputeOn(PhaseLSQ, lsqFlops)
	e.W.UpdateWithBasis(0, e.V, 0, y, PhaseVec)
}

// drive is the restart loop. At every boundary it checkpoints (while a
// fault plan is armed), checks for cancellation, recomputes the true
// residual, records and tests it, and hands the normalized residual to
// the cycle; after the loop it certifies the iterate it stopped at.
func (e *engine) drive(ck *checkpoint, s cycler) (*Result, error) {
	ctx, opts, res := e.ctx, e.opts, e.res
	if e.bNorm == 0 {
		// Trivial system: x = 0.
		e.em.emit(obs.Record{Kind: "done"})
		res.X, res.Converged = e.p.Unmap(make([]float64, e.p.Layout.N)), true
		return res, nil
	}
	if nonFinite(e.bNorm) {
		return res, &BreakdownError{Stage: "residual"}
	}

	start := 0
	if ck.captured {
		// Resume from the last restart boundary: restore the iterate and
		// the outer-loop counters captured before the device loss.
		e.W.SetColFromHost(0, ck.x)
		res.Restarts, res.Iters = ck.restarts, ck.iters
		res.History = append([]float64(nil), ck.history...)
		start = ck.restart
	}
	keeper, _ := s.(boundaryKeeper)
	if keeper != nil {
		keeper.begin(e, ck)
	}

	retried := false
	for restart := start; restart < opts.MaxRestarts; restart++ {
		if ctx.FaultsArmed() {
			ck.capture(e.W.GatherCol(0), restart, res)
			if keeper != nil {
				keeper.save(ck)
			}
			e.em.emit(obs.Record{Kind: "checkpoint", Restart: restart, Step: res.Iters})
		}
		if opts.canceled() {
			res.Canceled = true
			break
		}
		beta, relres, err := e.residual()
		if err != nil {
			return res, err
		}
		if restart > 0 {
			tag := ""
			if keeper != nil {
				tag = keeper.observe(relres, retried)
			}
			res.History = append(res.History, relres)
			e.em.emit(obs.Record{Kind: "restart", Restart: restart, Step: res.Iters, RelRes: relres, Precision: tag})
		}
		if relres <= opts.Tol {
			res.Converged = true
			res.RelRes = relres
			break
		}
		res.Restarts++
		e.sc.copyScaled(e.W, 2, e.V, 0, 1/beta) // v_0 = r / beta

		out, err := s.cycle(e, restart, beta, relres)
		if err != nil {
			return res, err
		}
		if retried = out == retry; retried {
			res.Restarts--
		}
		if out == stop {
			res.Canceled = true
			break
		}
	}

	if !res.Converged {
		var err error
		if _, res.RelRes, err = e.residual(); err != nil {
			return res, err
		}
	}
	tag := ""
	if keeper != nil {
		tag = keeper.finish(res)
	}
	e.em.emit(obs.Record{Kind: "done", Restart: res.Restarts, Step: res.Iters, RelRes: res.RelRes, Precision: tag})
	res.X = e.p.Unmap(e.W.GatherCol(0))
	return res, nil
}
