package ortho

import (
	"fmt"
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// CholQR orthonormalizes the whole window at once through its Gram
// matrix: B = V'V (one BLAS-3 kernel per device, the paper's batched
// DGEMM), R = chol(B) on the host, V := V R^{-1} on the devices. Exactly
// two GPU-CPU transfers per window — the communication-optimal strategy —
// but the Gram matrix squares the condition number, so the orthogonality
// error is O(eps*kappa^2) and the Cholesky factorization can fail outright
// on the ill-conditioned bases the matrix powers kernel produces
// (ErrNotPositiveDefinite surfaces as ErrRankDeficient here).
type CholQR struct {
	// GramElem, when not Elem64, accumulates and ships the Gram matrix
	// in single precision (the MixedCholQR kernel behind the
	// Options.Precision policy): half the BLAS-3 traffic and half the
	// reduce volume, while the Cholesky factorization and the
	// triangular solve stay double precision. Any sub-FP64 width maps
	// to fp32 — the Gram matrix is never accumulated in bfloat16.
	GramElem gpu.Elem

	sc *Scratch // bound: the attempt's; nil: one on the heap per call
}

// Name implements TSQR.
func (CholQR) Name() string { return "CholQR" }

// Factor implements TSQR.
func (q CholQR) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	return use(q.sc).cholQR(ctx, w, phase, q.GramElem)
}

func (sc *Scratch) cholQR(ctx *gpu.Context, w []*la.Dense, phase string, elem gpu.Elem) (*la.Dense, error) {
	b, err := sc.gramReduce(ctx, w, phase, elem)
	if err != nil {
		return nil, err
	}
	// The host factorization starts once the reduced Gram matrix has
	// arrived (hostData ordering); the devices are free in the meantime.
	c := b.Rows
	r := sc.r.take(sc.ws, c, c)
	err = la.Cholesky(b, r)
	chol := ctx.HostComputeOn(phase, float64(c*c*c)/3)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRankDeficient, err)
	}
	if _, err := finite(r); err != nil {
		return nil, err
	}
	sc.applyInvR(ctx, w, r, phase, chol)
	return r, nil
}

// SVQR replaces the Cholesky factorization of the Gram matrix with an
// eigendecomposition (the SVD of B): B = U S U', R = qr(S^(1/2) U'). It
// has the same 2-transfer communication profile and BLAS-3 device profile
// as CholQR but survives Gram matrices that are numerically semidefinite.
// Following the paper (Section V-D), the Gram matrix is scaled so its
// diagonal is one before the decomposition, which repairs most of SVQR's
// element-wise error. Singular values below eps*max are clamped, so a
// rank-deficient window yields a usable (if inaccurate) basis instead of
// a hard failure; exact zero columns still error.
type SVQR struct {
	sc *Scratch // bound: the attempt's; nil: one on the heap per call
}

// Name implements TSQR.
func (SVQR) Name() string { return "SVQR" }

// Factor implements TSQR. Bound, its Gram matrix and device bodies are
// the scratch's; the eigendecomposition and the QR of its factor allocate
// on the host, and R is the caller's to keep.
func (q SVQR) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	sc := use(q.sc)
	b, err := sc.gramReduce(ctx, w, phase, gpu.Elem64)
	if err != nil {
		return nil, err
	}
	c := b.Rows
	// Diagonal scaling: Bs = D^{-1/2} B D^{-1/2}.
	dscale := make([]float64, c)
	for i := 0; i < c; i++ {
		d := b.At(i, i)
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: non-positive Gram diagonal %g at %d", ErrRankDeficient, d, i)
		}
		dscale[i] = math.Sqrt(d)
	}
	bs := la.NewDense(c, c)
	for j := 0; j < c; j++ {
		for i := 0; i < c; i++ {
			bs.Set(i, j, b.At(i, j)/(dscale[i]*dscale[j]))
		}
	}
	// Eigendecomposition of the scaled Gram matrix.
	eig, u := la.JacobiEig(bs)
	ctx.HostComputeOn(phase, 9*float64(c*c*c)) // Jacobi sweeps
	smax := eig[0]
	if smax <= 0 {
		return nil, fmt.Errorf("%w: Gram matrix has no positive eigenvalues", ErrRankDeficient)
	}
	const clampRel = 1e-15
	for i := range eig {
		if eig[i] < clampRel*smax {
			eig[i] = clampRel * smax
		}
	}
	// M = S^{1/2} U' D^{1/2}; R = triangular factor of qr(M).
	m := la.NewDense(c, c)
	for i := 0; i < c; i++ {
		si := math.Sqrt(eig[i])
		for j := 0; j < c; j++ {
			m.Set(i, j, si*u.At(j, i)*dscale[j])
		}
	}
	f := la.HouseholderQR(m)
	rfac := f.R()
	la.FixRSigns(nil, rfac)
	hqr := ctx.HostComputeOn(phase, 2*float64(c*c*c))
	if _, err := finite(rfac); err != nil {
		return nil, err
	}
	sc.applyInvR(ctx, w, rfac, phase, hqr)
	return rfac, nil
}

// gramReduce computes the global Gram matrix of the window: per-device
// batched BLAS-3 Gram kernels, one all-reduce. A sub-FP64 elem switches to
// the single-precision Gram kernel: float32 accumulation on device, a
// half-width reduce tagged in the precision ledger, and a
// float32-granular host sum.
func (sc *Scratch) gramReduce(ctx *gpu.Context, w []*la.Dense, phase string, elem gpu.Elem) (*la.Dense, error) {
	c := windowCols(ctx, w)
	if elem != gpu.Elem64 {
		elem = gpu.Elem32
	}
	if sc.gramPart == nil {
		sc.gramPart = sc.gramDev
	}
	b := sc.gram.take(sc.ws, c, c)
	sc.w, sc.fp32 = w, elem == gpu.Elem32
	ctx.AllReduce(phase, b.Data, elem, sc.gramPart)
	for j := 0; j < c; j++ {
		for i := 0; i < c; i++ {
			if math.IsNaN(b.At(i, j)) || math.IsInf(b.At(i, j), 0) {
				return nil, fmt.Errorf("%w: non-finite Gram entry at (%d,%d)", ErrRankDeficient, i, j)
			}
		}
	}
	return b, nil
}

func (sc *Scratch) gramDev(d int, part []float64) gpu.Work {
	w := sc.w[d]
	c := w.Cols
	g := la.Dense{Rows: c, Cols: c, Stride: c, Data: part}
	rows := float64(w.Rows)
	if sc.fp32 {
		la.GramF32(w, &g)
		return gpu.Work{Flops: rows * float64(c) * float64(c), Bytes: 4 * rows * float64(c), Elem: gpu.Elem32}
	}
	la.BatchedGram(w, &g)
	return gpu.Work{Flops: rows * float64(c) * float64(c), Bytes: 8 * rows * float64(c)}
}

// applyInvR broadcasts R once the host has produced it (the after event)
// and runs the device-side triangular solve V := V R^{-1} (MAGMA DTRSM in
// the paper).
func (sc *Scratch) applyInvR(ctx *gpu.Context, w []*la.Dense, r *la.Dense, phase string, after gpu.StreamEvent) {
	c := r.Rows
	bc := ctx.Broadcast(phase, c*c, gpu.Elem64, after)
	if sc.trsm == nil {
		sc.trsm = sc.trsmDev
	}
	sc.w, sc.m = w, r
	ctx.Launch(phase, sc.trsm, bc)
}

func (sc *Scratch) trsmDev(d int) gpu.Work {
	w := sc.w[d]
	la.TrsmRightUpper(w, sc.m)
	rows, c := float64(w.Rows), float64(sc.m.Rows)
	return gpu.Work{Flops: rows * c * c, Bytes: 16 * rows * c}
}
