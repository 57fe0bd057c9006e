package core

import (
	"fmt"
	"slices"

	"cagmres/internal/la"
	"cagmres/internal/obs"
	"cagmres/internal/ortho"
)

// CAGMRES solves the prepared problem with communication-avoiding
// GMRES(s, m): each restart cycle generates its m basis vectors in
// ceil(m/s) matrix-powers windows, orthogonalizing each window against
// the previous basis with BOrth and internally with the chosen TSQR
// strategy, then recovers the Hessenberg matrix from the change-of-basis
// and R factors and solves the usual small least-squares problem on the
// host (Figure 2 of the paper).
//
// With Basis == "newton" the first restart runs as standard GMRES (no
// shifts exist yet — exactly what the paper does); its Hessenberg matrix
// supplies the Ritz values that become Leja-ordered Newton shifts for all
// later restarts.
func CAGMRES(p *Problem, opts Options) (*Result, error) {
	c, err := check("ca", opts, p.A)
	if err != nil {
		return nil, err
	}
	return solveHealing(p, c.Options, "cagmres", c.S, &caSolver{tsqr: c.tsqr, borth: c.borth})
}

// caBoundary is the state CA-GMRES carries from one restart boundary to
// the next, and so into a checkpoint.
type caBoundary struct {
	shiftBlocks [][]complex128 // per-window Newton shifts; nil => monomial
	needShifts  bool           // the next cycle is the shift-harvesting seed cycle
	// Adaptive step size (future-work extension): sEff is the step the
	// window cycles currently use; it shrinks when windows fail and
	// recovers geometrically on clean restarts.
	sEff          int
	cleanRestarts int
}

// caSolver is CA-GMRES as the engine sees it: the seed and window cycles
// plus the boundary state they share. Everything below the strategies is
// rebuilt by begin on every attempt (healing re-enters after a device loss).
type caSolver struct {
	tsqr  ortho.TSQR
	borth ortho.BOrth

	caBoundary
	e   *engine
	pol *precisionPolicy // owns the per-restart width decisions
	st  strategies       // tsqr and borth bound to the attempt's workspace
	h   *la.Dense        // Hessenberg matrix of the current cycle
}

func (c *caSolver) begin(e *engine, ck *checkpoint) {
	c.e = e
	c.pol = newPrecisionPolicy(e.opts.Precision, e.ctx.Profile().BF16Transfer)
	c.h = la.NewDense(e.m+1, e.m)
	c.caBoundary = caBoundary{needShifts: e.opts.Basis == "newton", sEff: e.opts.S}
	if ck.captured {
		c.caBoundary = ck.ca
		c.pol.restore(ck.precLevel)
	}
	c.st = bindStrategies(e.orthoScratch(), c.tsqr, c.borth, c.pol.active())
}

func (c *caSolver) save(ck *checkpoint) {
	ck.ca = c.caBoundary
	ck.precLevel = c.pol.level
}

// observe: this boundary's FP64 SpMV + norm and the FP64 iterate update
// that preceded it are the refinement step of the narrowed pipeline; the
// policy tightens (never loosens) on its evidence. A retried restart
// revisits the same boundary with the same residual — no new evidence, so
// the policy does not observe it again (the stall guard would misread the
// retry as a stalled narrowed cycle).
func (c *caSolver) observe(relres float64, retried bool) string {
	tag := c.pol.tag()
	if !retried {
		c.pol.observeRefinement()
		c.pol.observeRestart(relres, c.e.opts.Tol)
	}
	return tag
}

func (c *caSolver) finish(res *Result) string {
	res.Precision = c.pol.finish()
	return c.pol.tag()
}

func (c *caSolver) cycle(e *engine, restart int, beta, relres float64) (outcome, error) {
	c.h.Zero()
	if c.needShifts {
		return c.seed(e, restart, beta, relres)
	}
	return c.windows(e, restart, beta, relres)
}

// seed is the first cycle of the Newton basis: standard GMRES iterations
// (no shifts exist yet), whose Hessenberg matrix supplies the Ritz values
// that become the Leja-ordered shifts of every later cycle.
func (c *caSolver) seed(e *engine, restart int, beta, relres float64) (outcome, error) {
	m := e.m
	k := e.arnoldi(arnoldiCGS, beta, keepHessenberg(c.h, e.bNorm*e.opts.Tol))
	e.commit(restart, k, relres, lsqFlops(m))
	hk, err := e.ritzMatrix(c.h, k, e.res.Iters)
	if err != nil {
		return stop, err
	}
	c.shiftBlocks = scheduleShifts(newtonShifts(hk, m), m, e.opts.S)
	c.needShifts = false
	return advance, nil
}

// windows is the CA cycle: MPK + BOrth + TSQR per window, the residual
// estimated from the growing Hessenberg system after each.
func (c *caSolver) windows(e *engine, restart int, beta, relres float64) (outcome, error) {
	m, s, opts, pol := e.m, e.opts.S, e.opts, c.pol
	// Configure the pipeline for this restart's precision level: MPK
	// storage/transfer widths plus narrow Gram/projection kernels where
	// the chosen strategies support them.
	tsqr, borth := pol.apply(e.mpk, &c.st)
	if opts.AdaptiveS && c.sEff < s {
		// Recover the step size after two clean restarts.
		c.cleanRestarts++
		if c.cleanRestarts >= 2 {
			c.sEff = min(2*c.sEff, s)
			c.cleanRestarts = 0
		}
	}
	if c.shiftBlocks != nil && c.sEff != s {
		// Re-cut the shift schedule for the reduced window size.
		if flat := slices.Concat(c.shiftBlocks...); len(flat) == m {
			c.shiftBlocks = scheduleShifts(flat, m, c.sEff)
		}
	}
	giv := e.sc.givens(m, beta)
	done, failed, canceled := 0, false, false
	for block := 0; done < m && relres > opts.Tol; block++ {
		if opts.canceled() {
			// Stop between windows: keep the vectors generated so far (the
			// commit below salvages them) and exit.
			canceled = true
			break
		}
		var shifts []complex128
		steps := min(c.sEff, m-done)
		if c.shiftBlocks != nil {
			if block >= len(c.shiftBlocks) {
				break // shift schedule exhausted (convergence checks passed us here)
			}
			shifts = c.shiftBlocks[block]
			steps = len(shifts)
		}
		win, err := e.window(c.h, done, steps, shifts, tsqr, borth)
		if err != nil {
			switch {
			case opts.AdaptiveS && c.sEff > 1:
				// Adaptive step size: the window was too deep for this
				// basis. Halve s and redo the whole restart cycle (the basis
				// vectors after `done` are garbage, and the shift schedule
				// changes).
				c.sEff = (c.sEff + 1) / 2
				failed = true
			case done > 0:
				// The window is numerically rank deficient — the usual cause
				// is a nearly invariant Krylov subspace (the solve has
				// effectively converged inside the window). Discard the
				// window, solve with the basis accumulated so far, and let
				// the restart's true residual decide.
			case windowHasNonFinite(win):
				// The generated basis itself overflowed (the TSQR failure is
				// a symptom): a numerical breakdown, not a rank-deficiency
				// corner case.
				return stop, &BreakdownError{Iter: e.res.Iters + done, Stage: "basis"}
			case pol.tightenOnFailure():
				// The narrowed width — not the window depth — destroyed the
				// Gram conditioning: retry the restart one level closer to
				// full double.
				failed = true
			default:
				return stop, fmt.Errorf("core: CA-GMRES restart %d window at %d (%s): %w",
					restart, done, c.tsqr.Name(), err)
			}
			break
		}
		// Store the orthonormalized window at the basis storage width
		// before anything measures or consumes it.
		pol.roundWindow(win)
		var winLoss float64
		if e.em.enabled() || pol.active() {
			winLoss = e.sc.orthoLoss(win)
		}
		pol.observeWindow(winLoss)

		// Residual estimate from the growing Hessenberg system.
		for j := done; j < done+steps; j++ {
			giv.Append(c.h.Col(j)[:j+2])
		}
		done += steps
		e.ctx.HostComputeOn(PhaseLSQ, lsqFlops(done))
		relres = giv.ResidualNorm() / e.bNorm
		if nonFinite(relres) {
			return stop, &BreakdownError{Iter: e.res.Iters + done, Stage: "window"}
		}
		if e.em.enabled() {
			e.em.emit(obs.Record{Kind: "window", Restart: restart, Step: done, RelRes: relres,
				OrthoLoss: winLoss, TSQR: tsqr.Name(), Precision: pol.tag()})
		}
	}
	if canceled && done == 0 {
		// Canceled before the first window produced anything: x is
		// unchanged, stop with the previous restart's iterate.
		return stop, nil
	}
	if failed {
		c.cleanRestarts = 0
		if done == 0 {
			// Nothing salvageable this cycle: x is unchanged, retry the
			// restart with the smaller step (or tighter width).
			return retry, nil
		}
	}
	e.commit(restart, done, relres, lsqFlops(done))
	if canceled {
		return stop, nil
	}
	return advance, nil
}

// updateHessenberg recovers the new Hessenberg columns from one CA window
// (Hoemmen's change-of-basis algebra). Inputs: bhat is the MPK
// change-of-basis ((steps+1) x steps) with A*W_{0:steps-1} = W * bhat,
// where W = [q_{q-1}, w_1..w_steps]; c = Qprev' W_{1:steps} (q x steps)
// from BOrth; r (steps x steps) from TSQR, so w_i = Qprev c_i + Qnew r_i.
//
// In the orthonormal basis Q = [Qprev | Qnew] the window is W = Q*G with
// G = [e_{q-1} | [C; R]]. Then:
//
//	column q-1 of H  (A q_{q-1} = A w_0):        H[:,q-1] = (G bhat)[:,0]
//	columns q..q+steps-2 (A Qnew_{0:steps-2}):
//	    A Qnew = (A W_{1:steps-1} - A Qprev C_{:,0:steps-2}) Rsub^{-1}
//	           = (G bhat[:,1:] - H[:,0:q] C[:,0:steps-2]) Rsub^{-1}
//
// where Rsub = R[0:steps-1, 0:steps-1]. All small host-side products.
func (sc *cycleScratch) updateHessenberg(h, bhat, c, r *la.Dense, q, steps int) {
	rows := q + steps
	// G ((q+steps) x (steps+1)).
	g, aw, msub := sc.hessenberg(rows, steps)
	g.Set(q-1, 0, 1)
	for j := 0; j < steps; j++ {
		for i := 0; i < q; i++ {
			g.Set(i, j+1, c.At(i, j))
		}
		for i := 0; i < steps; i++ {
			g.Set(q+i, j+1, r.At(i, j))
		}
	}
	// AW = G * bhat ((q+steps) x steps).
	la.GemmNN(1, &g, bhat, 0, &aw)

	// Column q-1 of H.
	for i := 0; i < rows && i < h.Rows; i++ {
		h.Set(i, q-1, aw.At(i, 0))
	}

	if steps == 1 {
		return
	}
	// M = AW[:,1:steps] - H[:,0:q] * C[:,0:steps-1].
	for j := 1; j < steps; j++ {
		copy(msub.Col(j-1), aw.Col(j))
	}
	hq := h.RowView(0, rows).ColView(0, q)
	csub := c.ColView(0, steps-1)
	la.GemmNN(-1, hq, csub, 1, &msub)
	// Right-solve against Rsub: columns of Hnew = M * Rsub^{-1}.
	rsub := r.RowView(0, steps-1).ColView(0, steps-1)
	la.TrsmRightUpper(&msub, rsub)
	for j := 0; j < steps-1; j++ {
		for i := 0; i < rows && i < h.Rows; i++ {
			h.Set(i, q+j, msub.At(i, j))
		}
	}
	// Clean sub-subdiagonal noise so H is exactly Hessenberg.
	for j := 0; j < steps; j++ {
		col := q - 1 + j
		for i := col + 2; i < h.Rows; i++ {
			h.Set(i, col, 0)
		}
	}
}
