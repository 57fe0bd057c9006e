package core

import (
	"fmt"

	"cagmres/internal/dist"
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
	opts.defaults()
	tsqr, err := ortho.ByName(opts.Ortho)
	if err != nil {
		return nil, err
	}
	if opts.OrthoImpl != nil {
		tsqr = opts.OrthoImpl
	}
	borth, err := ortho.BOrthByName(opts.BOrth)
	if err != nil {
		return nil, err
	}
	if opts.Basis != "newton" && opts.Basis != "monomial" {
		return nil, fmt.Errorf("core: unknown basis %q", opts.Basis)
	}
	if opts.M < 1 || opts.M > p.Layout.N {
		return nil, fmt.Errorf("core: restart length %d out of range for n=%d", opts.M, p.Layout.N)
	}
	if opts.S < 1 || opts.S > opts.M {
		return nil, fmt.Errorf("core: step size s=%d out of range for m=%d", opts.S, opts.M)
	}
	prec, err := NormalizePrecision(opts.Precision)
	if err != nil {
		return nil, err
	}
	opts.Precision = prec
	return solveHealing(p, opts, "cagmres", func(p *Problem, ck *checkpoint) (*Result, error) {
		return runCAGMRES(p, opts, tsqr, borth, ck)
	})
}

// runCAGMRES is one CA-GMRES solve attempt on the current device
// context, resuming from the checkpoint when one is captured (iterate,
// Newton shift schedule and adaptive-step state). solveHealing owns the
// ledger reset and device-loss recovery around it.
func runCAGMRES(p *Problem, opts Options, tsqr ortho.TSQR, borth ortho.BOrth, ck *checkpoint) (*Result, error) {
	ctx := p.Ctx
	n := p.Layout.N
	m, s := opts.M, opts.S

	// One depth-s distribution serves the matrix powers kernel and, read
	// up to its owned-row prefix, the residual SpMVs and the first GMRES
	// cycle.
	mpk := dist.NewMPK(p.distributed(s))

	V := dist.NewVectors(ctx, p.Layout, m+1)
	W := dist.NewVectors(ctx, p.Layout, 3) // x, b, r
	W.SetColFromHost(1, p.B)

	sc := getScratch(m, ctx.NumDevices)
	defer putScratch(sc)

	em := newEmitter(opts.Telemetry, "cagmres", ctx)
	bNorm := la.Nrm2(p.B)
	if bNorm == 0 {
		em.emit(obs.Record{Kind: "done"})
		return &Result{X: p.Unmap(make([]float64, n)), Converged: true, RelRes: 0, Stats: ctx.Stats()}, nil
	}
	if nonFinite(bNorm) {
		return &Result{Stats: ctx.Stats()}, &BreakdownError{Iter: 0, Stage: "residual"}
	}

	res := &Result{Stats: ctx.Stats()}
	var shiftBlocks [][]complex128 // nil => monomial
	needShifts := opts.Basis == "newton"

	// The precision policy owns the per-restart width decisions. It is
	// rebuilt on every attempt (healing re-enters here after a device
	// loss) and rewound to the checkpointed level below.
	pol := newPrecisionPolicy(opts.Precision, ctx.Profile().BF16Transfer)

	// Adaptive step size (future-work extension): sEff is the step the
	// CA cycles currently use; it shrinks when windows fail and recovers
	// geometrically on clean restarts.
	sEff := s
	cleanRestarts := 0

	startRestart := 0
	if ck.captured {
		// Resume from the last restart boundary: restore the iterate, the
		// outer-loop counters, the harvested shift schedule and the
		// adaptive-step state captured before the device loss.
		W.SetColFromHost(0, ck.x)
		res.Restarts, res.Iters = ck.restarts, ck.iters
		res.History = append([]float64(nil), ck.history...)
		shiftBlocks = ck.shiftBlocks
		needShifts = ck.needShifts
		sEff = ck.sEff
		cleanRestarts = ck.cleanRestarts
		startRestart = ck.restart
		pol.restore(ck.precLevel)
	}

	h := la.NewDense(m+1, m)
	retryBoundary := false
	for restart := startRestart; restart < opts.MaxRestarts; restart++ {
		if ctx.FaultsArmed() {
			ck.capture(W.GatherCol(0), restart, res)
			ck.shiftBlocks = shiftBlocks
			ck.needShifts = needShifts
			ck.sEff = sEff
			ck.cleanRestarts = cleanRestarts
			ck.precLevel = pol.level
			em.emit(obs.Record{Kind: "checkpoint", Restart: restart, Step: res.Iters})
		}
		if opts.canceled() {
			res.Canceled = true
			break
		}
		// r = b - A x, beta, v0.
		mpk.SpMV(W, 0, W, 2, PhaseSpMV)
		negateInto(W, 2, 1)
		beta := W.NormCol(2, PhaseVec)
		relres := beta / bNorm
		if nonFinite(relres) {
			// Non-finite residual at the restart boundary: stop instead
			// of iterating on garbage.
			return res, &BreakdownError{Iter: res.Iters, Stage: "residual"}
		}
		if restart > 0 {
			// This boundary's FP64 SpMV + norm and the FP64 iterate update
			// that preceded it are the refinement step of the narrowed
			// pipeline; the policy tightens (never loosens) on its
			// evidence. A retried restart revisits the same boundary with
			// the same residual — no new evidence, so the policy does not
			// observe it again (the stall guard would misread the retry as
			// a stalled narrowed cycle).
			if !retryBoundary {
				pol.observeRefinement()
			}
			res.History = append(res.History, relres)
			em.emit(obs.Record{Kind: "restart", Restart: restart, Step: res.Iters, RelRes: relres,
				Precision: pol.tag()})
			if !retryBoundary {
				pol.observeRestart(relres, opts.Tol)
			}
		}
		retryBoundary = false
		if relres <= opts.Tol {
			res.Converged = true
			res.RelRes = relres
			break
		}
		res.Restarts++
		copyScaled(W, 2, V, 0, 1/beta)
		h.Zero()

		if needShifts {
			// First cycle: standard GMRES iterations, harvesting H.
			k := gmresCycle(mpk, V, h, m, beta, bNorm*opts.Tol, sc)
			res.Iters += k
			if em.enabled() {
				em.emit(obs.Record{Kind: "cycle", Restart: restart, Step: k, RelRes: relres,
					OrthoLoss: orthoLoss(V.Window(0, k+1))})
			}
			giv := solveSmall(h, k, beta)
			ctx.HostComputeOn(PhaseLSQ, 3*float64(m+1)*float64(m+1))
			W.UpdateWithBasis(0, V, 0, giv[:k], PhaseVec)
			// Ritz values from the square part of H.
			hk := la.NewDense(k, k)
			for j := 0; j < k; j++ {
				for i := 0; i <= j+1 && i < k; i++ {
					x := h.At(i, j)
					if nonFinite(x) {
						// A non-finite Hessenberg means the seed cycle's
						// basis already overflowed; deriving Newton shifts
						// from it would feed NaN Ritz values into the Leja
						// ordering. Stop here.
						return res, &BreakdownError{Iter: res.Iters, Stage: "basis"}
					}
					hk.Set(i, j, x)
				}
			}
			shifts := newtonShifts(hk, m)
			shiftBlocks = scheduleShifts(shifts, m, s)
			ctx.HostComputeOn(PhaseLSQ, 20*float64(k*k*k))
			needShifts = false
			continue
		}

		// --- CA cycle: MPK + BOrth + TSQR per window. ---
		// Configure the pipeline for this restart's precision level: MPK
		// storage/transfer widths plus narrow Gram/projection kernels
		// where the chosen strategies support them.
		tsqrR, borthR := pol.apply(mpk, tsqr, borth)
		if opts.AdaptiveS && sEff < s {
			// Recover the step size after two clean restarts.
			cleanRestarts++
			if cleanRestarts >= 2 {
				sEff = min(2*sEff, s)
				cleanRestarts = 0
			}
		}
		if shiftBlocks != nil && sEff != s {
			// Re-cut the shift schedule for the reduced window size.
			flat := make([]complex128, 0, m)
			for _, blk := range shiftBlocks {
				flat = append(flat, blk...)
			}
			if len(flat) == m {
				shiftBlocks = scheduleShifts(flat, m, sEff)
			}
		}
		done := 0
		block := 0
		converged := false
		windowFailed := false
		for done < m && !converged {
			if opts.canceled() {
				// Stop between windows: keep the vectors generated so
				// far (the update below salvages them) and exit.
				res.Canceled = true
				break
			}
			var steps int
			var blockShifts []complex128
			if shiftBlocks != nil {
				if block >= len(shiftBlocks) {
					break // shift schedule exhausted (convergence checks passed us here)
				}
				blockShifts = shiftBlocks[block]
				steps = len(blockShifts)
			} else {
				steps = sEff
				if done+steps > m {
					steps = m - done
				}
			}
			bhat := mpk.Generate(V, done, steps, blockShifts, PhaseMPK)

			q := done + 1
			prev := V.Window(0, q)
			win := V.Window(q, q+steps)
			c := borthR.Project(ctx, prev, win, PhaseBOrth)
			r, err := tsqrR.Factor(ctx, win, PhaseTSQR)
			if err != nil {
				if opts.AdaptiveS && sEff > 1 {
					// Adaptive step size: the window was too deep for
					// this basis. Halve s and redo the whole restart
					// cycle (the basis vectors after `done` are garbage,
					// and the shift schedule changes).
					sEff = (sEff + 1) / 2
					windowFailed = true
					break
				}
				if done > 0 {
					// The window is numerically rank deficient — the
					// usual cause is a nearly invariant Krylov subspace
					// (the solve has effectively converged inside the
					// window). Discard the window, solve with the basis
					// accumulated so far, and let the restart's true
					// residual decide.
					break
				}
				if windowHasNonFinite(win) {
					// The generated basis itself overflowed (the TSQR
					// failure is a symptom): a numerical breakdown, not a
					// rank-deficiency corner case.
					return res, &BreakdownError{Iter: res.Iters + done, Stage: "basis"}
				}
				if pol.tightenOnFailure() {
					// The narrowed width — not the window depth — destroyed
					// the Gram conditioning: retry the restart one level
					// closer to full double.
					windowFailed = true
					break
				}
				return res, fmt.Errorf("core: CA-GMRES restart %d window at %d (%s): %w",
					restart, done, tsqr.Name(), err)
			}
			// Store the orthonormalized window at the basis storage width
			// before anything measures or consumes it.
			pol.roundWindow(win)
			var winLoss float64
			if em.enabled() || pol.active() {
				winLoss = orthoLoss(win)
			}
			pol.observeWindow(winLoss)
			// The change-of-basis algebra is host work; under overlap it
			// runs while the devices start the next window's exchange.
			updateHessenberg(h, bhat, c, r, q, steps)
			ctx.HostComputeOn(PhaseLSQ, 2*float64(q+steps)*float64(steps)*float64(q+steps))

			done += steps
			block++
			// Residual estimate from the growing Hessenberg system.
			_, rn := la.HessenbergLS(subHessenberg(h, done), e1(done+1, beta))
			ctx.HostComputeOn(PhaseLSQ, 3*float64(done+1)*float64(done+1))
			relres = rn / bNorm
			if nonFinite(relres) {
				return res, &BreakdownError{Iter: res.Iters + done, Stage: "window"}
			}
			em.emit(obs.Record{Kind: "window", Restart: restart, Step: done, RelRes: relres,
				OrthoLoss: winLoss, TSQR: tsqrR.Name(), Precision: pol.tag()})
			if rn/bNorm <= opts.Tol {
				converged = true
			}
		}
		if res.Canceled && done == 0 {
			// Canceled before the first window produced anything: x is
			// unchanged, stop with the previous restart's iterate.
			break
		}
		if windowFailed {
			cleanRestarts = 0
			if done == 0 {
				// Nothing salvageable this cycle: x is unchanged, retry
				// the restart with the smaller step (or tighter width).
				res.Restarts--
				retryBoundary = true
				continue
			}
		}
		res.Iters += done
		if em.enabled() {
			em.emit(obs.Record{Kind: "cycle", Restart: restart, Step: done, RelRes: relres,
				OrthoLoss: orthoLoss(V.Window(0, done+1))})
		}

		y, _ := la.HessenbergLS(subHessenberg(h, done), e1(done+1, beta))
		ctx.HostComputeOn(PhaseLSQ, 3*float64(done+1)*float64(done+1))
		W.UpdateWithBasis(0, V, 0, y, PhaseVec)
		if res.Canceled {
			break
		}
	}

	if !res.Converged {
		mpk.SpMV(W, 0, W, 2, PhaseSpMV)
		negateInto(W, 2, 1)
		res.RelRes = W.NormCol(2, PhaseVec) / bNorm
		if nonFinite(res.RelRes) {
			return res, &BreakdownError{Iter: res.Iters, Stage: "residual"}
		}
	}
	res.Precision = pol.finish()
	em.emit(obs.Record{Kind: "done", Restart: res.Restarts, Step: res.Iters, RelRes: res.RelRes,
		Precision: pol.tag()})
	res.X = p.Unmap(W.GatherCol(0))
	return res, nil
}

// gmresCycle runs one standard GMRES restart cycle (CGS Arnoldi) on an
// already-normalized V[:,0], filling h, and returns the number of
// iterations performed. Used for the shift-harvesting first cycle of
// Newton-basis CA-GMRES.
func gmresCycle(mpk *dist.MPK, v *dist.Vectors, h *la.Dense, m int, beta, absTol float64, sc *cycleScratch) int {
	giv := sc.givens(m, beta)
	k := 0
	for ; k < m; k++ {
		mpk.SpMV(v, k, v, k+1, PhaseSpMV)
		hcol := sc.hcol[:k+2]
		err := arnoldiCGS(v, k, hcol, sc)
		for i := 0; i <= k+1; i++ {
			h.Set(i, k, hcol[i])
		}
		stop := giv.Append(hcol) <= absTol
		if err != nil || stop {
			k++
			break
		}
	}
	return k
}

// solveSmall solves the least-squares problem for the first k columns of
// h with rhs beta*e1.
func solveSmall(h *la.Dense, k int, beta float64) []float64 {
	y, _ := la.HessenbergLS(subHessenberg(h, k), e1(k+1, beta))
	return y
}

// subHessenberg views the leading (k+1) x k block of h.
func subHessenberg(h *la.Dense, k int) *la.Dense {
	return h.RowView(0, k+1).ColView(0, k)
}

func e1(n int, beta float64) []float64 {
	c := make([]float64, n)
	c[0] = beta
	return c
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
func updateHessenberg(h, bhat, c, r *la.Dense, q, steps int) {
	rows := q + steps
	// G ((q+steps) x (steps+1)).
	g := la.NewDense(rows, steps+1)
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
	aw := la.NewDense(rows, steps)
	la.GemmNN(1, g, bhat, 0, aw)

	// Column q-1 of H.
	for i := 0; i < rows && i < h.Rows; i++ {
		h.Set(i, q-1, aw.At(i, 0))
	}

	if steps == 1 {
		return
	}
	// M = AW[:,1:steps] - H[:,0:q] * C[:,0:steps-1].
	msub := la.NewDense(rows, steps-1)
	for j := 1; j < steps; j++ {
		copy(msub.Col(j-1), aw.Col(j))
	}
	hq := h.RowView(0, rows).ColView(0, q)
	csub := c.ColView(0, steps-1)
	la.GemmNN(-1, hq, csub, 1, msub)
	// Right-solve against Rsub: columns of Hnew = M * Rsub^{-1}.
	rsub := r.RowView(0, steps-1).ColView(0, steps-1)
	la.TrsmRightUpper(msub, rsub)
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
