package ortho

import (
	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// MixedCholQR implements the mixed-precision orthogonalization scheme
// the paper's conclusion points to (its reference [23], Yamazaki, Tomov,
// Dong, Dongarra): the Gram matrix is accumulated and shipped in single
// precision — halving both the BLAS-3 kernel's memory traffic and the
// device-to-host volume — while the Cholesky factorization and the
// triangular solve stay in double precision. One optional
// double-precision reorthogonalization pass (Refine) restores full
// accuracy; without it the orthogonality error floor is O(eps_32 kappa^2)
// instead of O(eps_64 kappa^2).
type MixedCholQR struct {
	// Refine adds a second, double-precision CholQR pass (the scheme's
	// "CholQR2" configuration). The R factors are combined.
	Refine bool
}

// Name implements TSQR.
func (m MixedCholQR) Name() string {
	if m.Refine {
		return "MixedCholQR2"
	}
	return "MixedCholQR"
}

// Factor implements TSQR: CholQR with a single-precision Gram matrix, then
// (Refine) plain CholQR on its Q.
func (m MixedCholQR) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	r1, err := (CholQR{GramElem: gpu.Elem32}).Factor(ctx, w, phase)
	if err != nil || !m.Refine {
		return r1, err
	}
	return secondPass(ctx, w, phase, CholQR{}, r1)
}
