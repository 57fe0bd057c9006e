package core

import (
	"fmt"
	"math/cmplx"
	"sort"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// RitzValues computes approximations to the extreme eigenvalues of the
// prepared problem's matrix by an m-step Arnoldi process — the paper's
// concluding claim that the SpMV/MPK and Orth/BOrth/TSQR kernels "may
// have greater impact beyond GMRES" (subspace projection eigensolvers),
// made concrete.
//
// With opts.S <= 1 the basis is built one SpMV + orthogonalization at a
// time (standard Arnoldi, the communication profile of GMRES); with
// opts.S > 1 it is built in matrix-powers windows with BOrth and the
// opts.Ortho TSQR strategy (CA-Arnoldi, the communication profile of
// CA-GMRES). The monomial basis is used since no Ritz shifts exist before
// the first pass. start is the starting vector (nil for e_1).
//
// Returns the m Ritz values sorted by decreasing modulus, and the ledger
// of modeled costs. It runs inside the solvers' recovery boundary: an
// injected device death or exhausted transfer retry comes back as the
// *gpu.DeviceLostError / *gpu.TransferError, not as a panic (the eigen
// path does not heal — there is no iterate to resume from).
func RitzValues(p *Problem, opts Options, start []float64) (ritz []complex128, err error) {
	defer guardFaults(&err)
	// The options are CA-GMRES's, checked by Check, except that a step
	// outside 1..M is clamped rather than refused.
	opts.defaults()
	opts.S = min(max(opts.S, 1), opts.M)
	c, err := check("ca", opts, p.A)
	if err != nil {
		return nil, err
	}
	ctx := p.Ctx
	ctx.ResetStats()
	n, m, s := p.Layout.N, c.M, c.S

	ws := ctx.TakeWorkspace()
	defer ws.Release()
	v0 := ws.Floats(gpu.HostDevice, n)
	if start != nil {
		if len(start) != n {
			return nil, fmt.Errorf("core: start vector length %d, want %d", len(start), n)
		}
		copy(v0, start)
	} else {
		v0[0] = 1
	}
	nrm := la.Nrm2(v0)
	if nrm == 0 {
		return nil, fmt.Errorf("core: zero starting vector")
	}
	la.Scal(1/nrm, v0)

	kr := newKrylov(p, ws, m, s)
	kr.V.SetColFromHost(0, v0)
	h := la.NewDense(m+1, m)
	steps := 0
	if s == 1 {
		steps = kr.arnoldi(arnoldiCGS, 1, keepHessenberg(h, 0))
	} else {
		st := bindStrategies(kr.orthoScratch(), c.tsqr, c.borth, false)
		for steps < m {
			w := min(s, m-steps)
			if _, err := kr.window(h, steps, w, nil, st.tsqr, st.borth); err != nil {
				if steps == 0 {
					return nil, fmt.Errorf("core: CA-Arnoldi window at 0 (%s): %w", c.tsqr.Name(), err)
				}
				break // invariant subspace: use what we have
			}
			steps += w
		}
	}

	hk, err := kr.ritzMatrix(h, steps, steps)
	if err != nil {
		return nil, err
	}
	ritz = la.HessenbergEigenvalues(hk)
	sort.Slice(ritz, func(a, b int) bool { return cmplx.Abs(ritz[a]) > cmplx.Abs(ritz[b]) })
	return ritz, nil
}
