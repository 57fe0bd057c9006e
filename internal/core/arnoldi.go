package core

import (
	"fmt"
	"math/cmplx"
	"sort"

	"cagmres/internal/dist"
	"cagmres/internal/la"
	"cagmres/internal/ortho"
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
// of modeled costs.
func RitzValues(p *Problem, opts Options, start []float64) ([]complex128, error) {
	opts.defaults()
	ctx := p.Ctx
	ctx.ResetStats()
	n := p.Layout.N
	m := opts.M
	if m < 1 || m > n {
		return nil, fmt.Errorf("core: Arnoldi steps %d out of range for n=%d", m, n)
	}
	s := opts.S
	if s < 1 {
		s = 1
	}
	if s > m {
		s = m
	}

	V := dist.NewVectors(ctx, p.Layout, m+1)
	v0 := make([]float64, n)
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
	V.SetColFromHost(0, v0)

	h := la.NewDense(m+1, m)
	sc := getScratch(m, ctx.NumDevices)
	defer putScratch(sc)
	var steps int
	mpk := dist.NewMPK(p.distributed(s))
	if s <= 1 {
		steps = gmresCycle(mpk, V, h, m, 1, 0, sc)
	} else {
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
		done := 0
		for done < m {
			w := s
			if done+w > m {
				w = m - done
			}
			bhat := mpk.Generate(V, done, w, nil, PhaseMPK)
			q := done + 1
			c := borth.Project(ctx, V.Window(0, q), V.Window(q, q+w), PhaseBOrth)
			r, err := tsqr.Factor(ctx, V.Window(q, q+w), PhaseTSQR)
			if err != nil {
				if done == 0 {
					return nil, fmt.Errorf("core: CA-Arnoldi window at 0 (%s): %w", tsqr.Name(), err)
				}
				break // invariant subspace: use what we have
			}
			updateHessenberg(h, bhat, c, r, q, w)
			ctx.HostCompute(PhaseLSQ, 2*float64(q+w)*float64(w)*float64(q+w))
			done += w
		}
		steps = done
	}
	if steps == 0 {
		return nil, fmt.Errorf("core: Arnoldi made no progress")
	}

	hk := la.NewDense(steps, steps)
	for j := 0; j < steps; j++ {
		for i := 0; i <= j+1 && i < steps; i++ {
			hk.Set(i, j, h.At(i, j))
		}
	}
	ritz := la.HessenbergEigenvalues(hk)
	ctx.HostCompute(PhaseLSQ, 20*float64(steps*steps*steps))
	sort.Slice(ritz, func(a, b int) bool { return cmplx.Abs(ritz[a]) > cmplx.Abs(ritz[b]) })
	return ritz, nil
}
