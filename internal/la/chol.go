package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when a non-positive pivot
// is encountered. In CA-GMRES this is the signature of an ill-conditioned
// Krylov basis panel: the Gram matrix V'V has condition number kappa(V)^2
// and its trailing block can lose positive definiteness in floating point.
var ErrNotPositiveDefinite = errors.New("la: matrix is not positive definite")

// Cholesky computes the upper-triangular factor R of B = R'R for a
// symmetric positive-definite B, writing R into a new matrix. B is not
// modified. The factorization proceeds from the top-left to the
// bottom-right, so — as the paper observes in Section V-D — error
// introduced while factoring the trailing submatrix stays localized there,
// which is why CholQR sometimes survives ill-conditioning that defeats
// SVQR.
func Cholesky(b *Dense) (*Dense, error) {
	n := b.Rows
	if b.Cols != n {
		panic(fmt.Sprintf("la: Cholesky non-square %dx%d", b.Rows, b.Cols))
	}
	r := NewDense(n, n)
	for j := 0; j < n; j++ {
		// diagonal: r_jj = sqrt(b_jj - sum_{k<j} r_kj^2)
		d := b.At(j, j)
		for k := 0; k < j; k++ {
			rkj := r.At(k, j)
			d -= rkj * rkj
		}
		// Fail only on mathematically invalid pivots. A tiny positive
		// pivot is allowed through: the Gram matrices CA-GMRES feeds to
		// CholQR have condition numbers up to ~1/eps (the paper reports
		// kappa(B)=3.3e16 for cant, Figure 12) and still factorize
		// usefully because they are graded and Cholesky's errors stay
		// localized (Section V-D). Tightening this check would reject
		// exactly the windows the paper shows 2xCholQR handling.
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d: %g)", ErrNotPositiveDefinite, j, d)
		}
		rjj := math.Sqrt(d)
		r.Set(j, j, rjj)
		// row j of R beyond the diagonal
		for c := j + 1; c < n; c++ {
			s := b.At(j, c)
			for k := 0; k < j; k++ {
				s -= r.At(k, j) * r.At(k, c)
			}
			r.Set(j, c, s/rjj)
		}
	}
	return r, nil
}

// UpperSolve solves R x = y in place for upper-triangular R.
func UpperSolve(r *Dense, y []float64) {
	n := r.Rows
	if len(y) != n {
		panic("la: UpperSolve length mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= r.At(i, k) * y[k]
		}
		d := r.At(i, i)
		if d == 0 {
			panic("la: UpperSolve singular R")
		}
		y[i] = s / d
	}
}

// InvertUpper returns the inverse of an upper-triangular matrix R.
func InvertUpper(r *Dense) *Dense {
	n := r.Rows
	inv := Eye(n)
	for j := 0; j < n; j++ {
		UpperSolve(r, inv.Col(j))
	}
	return inv
}
