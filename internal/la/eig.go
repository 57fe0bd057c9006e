package la

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// JacobiEig computes the full eigendecomposition B = U diag(w) U' of a
// symmetric matrix using the cyclic Jacobi rotation method. It returns the
// eigenvalues in descending order with matching eigenvector columns.
// Jacobi is slow for large matrices but bitwise-robust for the small
// (s+1)x(s+1) Gram matrices SVQR factors, which is exactly where the
// paper uses the SVD.
func JacobiEig(b *Dense) (w []float64, u *Dense) {
	n := b.Rows
	if b.Cols != n {
		panic(fmt.Sprintf("la: JacobiEig non-square %dx%d", b.Rows, b.Cols))
	}
	a := b.Clone()
	u = Eye(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm for convergence.
		var off float64
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off <= 1e-30*a.FrobNorm()*a.FrobNorm()+1e-300 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				// Rotation angle that annihilates a_pq.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// A := J' A J for rows/cols p and q.
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					ukp, ukq := u.At(k, p), u.At(k, q)
					u.Set(k, p, c*ukp-s*ukq)
					u.Set(k, q, s*ukp+c*ukq)
				}
			}
		}
	}
	w = make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = a.At(i, i)
	}
	// Sort descending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w[idx[i]] > w[idx[j]] })
	ws := make([]float64, n)
	us := NewDense(n, n)
	for j, k := range idx {
		ws[j] = w[k]
		copy(us.Col(j), u.Col(k))
	}
	return ws, us
}

// SymCond2 returns the 2-norm condition number of a symmetric
// positive-semidefinite matrix from its Jacobi eigenvalues. A zero or
// negative smallest eigenvalue yields +Inf.
func SymCond2(b *Dense) float64 {
	w, _ := JacobiEig(b)
	if len(w) == 0 {
		return 1
	}
	max, min := w[0], w[len(w)-1]
	if min <= 0 {
		return math.Inf(1)
	}
	return max / min
}

// GramCond2 estimates the 2-norm condition number of a tall-skinny V from
// its Gram matrix: kappa_2(V) = sqrt(kappa_2(V'V)).
func GramCond2(v *Dense) float64 {
	g := NewDense(v.Cols, v.Cols)
	BatchedGram(v, g)
	return math.Sqrt(SymCond2(g))
}

// HessenbergEigenvalues returns all eigenvalues of an upper Hessenberg
// matrix using a shifted QR iteration in complex arithmetic with Givens
// rotations and Wilkinson shifts. In CA-GMRES these are the Ritz values of
// A harvested from the first restart cycle; they become the Newton-basis
// shifts (Bai, Hu, Reichel 1994).
func HessenbergEigenvalues(h *Dense) []complex128 {
	n := h.Rows
	if h.Cols != n {
		panic(fmt.Sprintf("la: HessenbergEigenvalues non-square %dx%d", h.Rows, h.Cols))
	}
	if n == 0 {
		return nil
	}
	// Complex working copy, row-major for cache-friendly row ops, in one
	// block, and the sweeps' rotations: a QR step allocates nothing.
	a := make([][]complex128, n)
	block := make([]complex128, n*n)
	rots := make([]rotC, 0, n)
	for i := range a {
		a[i] = block[i*n : (i+1)*n : (i+1)*n]
		lo := i - 1
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < n; j++ {
			a[i][j] = complex(h.At(i, j), 0)
		}
	}
	eig := make([]complex128, 0, n)
	hi := n
	iterSinceDeflate := 0
	const maxIter = 120
	for hi > 0 {
		if hi == 1 {
			eig = append(eig, a[0][0])
			hi--
			continue
		}
		// Deflate a negligible trailing subdiagonal.
		tail := cmplx.Abs(a[hi-1][hi-2])
		ref := cmplx.Abs(a[hi-1][hi-1]) + cmplx.Abs(a[hi-2][hi-2])
		if ref == 0 {
			ref = 1
		}
		if tail <= 1e-14*ref {
			eig = append(eig, a[hi-1][hi-1])
			hi--
			iterSinceDeflate = 0
			continue
		}
		// Find the start of the active unreduced block.
		lo := hi - 1
		for lo > 0 {
			sub := cmplx.Abs(a[lo][lo-1])
			r := cmplx.Abs(a[lo][lo]) + cmplx.Abs(a[lo-1][lo-1])
			if r == 0 {
				r = 1
			}
			if sub <= 1e-14*r {
				a[lo][lo-1] = 0
				break
			}
			lo--
		}
		// Wilkinson shift from the trailing 2x2 of the active block;
		// fall back to an exceptional shift if we stall.
		var mu complex128
		if iterSinceDeflate > 0 && iterSinceDeflate%24 == 0 {
			// Exceptional shift to break symmetric stalls, per EISPACK HQR.
			ex := cmplx.Abs(a[hi-1][hi-2])
			if hi >= 3 {
				ex += cmplx.Abs(a[hi-2][hi-3])
			}
			mu = complex(ex, 0)
		} else {
			p := a[hi-2][hi-2]
			q := a[hi-2][hi-1]
			r := a[hi-1][hi-2]
			s := a[hi-1][hi-1]
			tr := p + s
			det := p*s - q*r
			disc := cmplx.Sqrt(tr*tr - 4*det)
			mu1 := (tr + disc) / 2
			mu2 := (tr - disc) / 2
			if cmplx.Abs(mu1-s) < cmplx.Abs(mu2-s) {
				mu = mu1
			} else {
				mu = mu2
			}
		}
		qrStepHessenberg(a, lo, hi, mu, rots)
		iterSinceDeflate++
		if iterSinceDeflate > maxIter {
			// Give up on further refinement of this block: harvest the
			// diagonal. For shift selection a crude Ritz value is still
			// usable, and this keeps the solver total.
			for i := lo; i < hi; i++ {
				eig = append(eig, a[i][i])
			}
			hi = lo
			iterSinceDeflate = 0
		}
	}
	return eig
}

// rotC is one complex Givens rotation of a QR sweep.
type rotC struct {
	c float64
	s complex128
}

// qrStepHessenberg performs one implicit shifted QR sweep A := Q'(A-muI)Q
// restricted to the active block [lo,hi) of a complex Hessenberg matrix,
// keeping its rotations in rots (capacity at least hi-lo).
func qrStepHessenberg(a [][]complex128, lo, hi int, mu complex128, rots []rotC) {
	n := hi
	rots = rots[:0]
	for i := lo; i < hi; i++ {
		a[i][i] -= mu
	}
	// Left Givens sweep: zero the subdiagonal.
	for k := lo; k < hi-1; k++ {
		x, y := a[k][k], a[k+1][k]
		c, s := givensC(x, y)
		rots = append(rots, rotC{c, s})
		for j := k; j < n; j++ {
			akj, ak1j := a[k][j], a[k+1][j]
			a[k][j] = complex(c, 0)*akj + s*ak1j
			a[k+1][j] = -cmplx.Conj(s)*akj + complex(c, 0)*ak1j
		}
	}
	// Right sweep: apply the conjugate rotations to columns, restoring
	// Hessenberg form.
	for k := lo; k < hi-1; k++ {
		r := rots[k-lo]
		iMax := k + 2
		if iMax > hi {
			iMax = hi
		}
		for i := lo; i < iMax; i++ {
			aik, aik1 := a[i][k], a[i][k+1]
			a[i][k] = complex(r.c, 0)*aik + cmplx.Conj(r.s)*aik1
			a[i][k+1] = -r.s*aik + complex(r.c, 0)*aik1
		}
	}
	for i := lo; i < hi; i++ {
		a[i][i] += mu
	}
}

// givensC computes a complex Givens rotation G = [[c, s], [-conj(s), c]]
// with real c such that G [x; y]' has a zero second component.
func givensC(x, y complex128) (float64, complex128) {
	ax, ay := cmplx.Abs(x), cmplx.Abs(y)
	if ay == 0 {
		return 1, 0
	}
	if ax == 0 {
		return 0, 1
	}
	r := math.Hypot(ax, ay)
	c := ax / r
	s := x * cmplx.Conj(y) / complex(ax*r, 0)
	return c, s
}
