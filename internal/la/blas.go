package la

import "fmt"

// Gemv computes y := alpha*A*x + beta*y for a column-major Dense A.
// A is Rows x Cols, x has length Cols, y has length Rows.
//
// The loop is organized along columns (axpy form) so that each column of A
// is traversed contiguously, which is the cache-friendly direction for
// column-major tall-skinny matrices. The beta scaling is fused into the
// first contributing column update instead of a separate pass over y, so a
// beta != 1 call streams y through the cache one time fewer; y is scaled
// at the end only when no column contributes (alpha == 0 or all-zero x).
func Gemv(alpha float64, a *Dense, x []float64, beta float64, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("la: Gemv shape mismatch A=%dx%d x=%d y=%d", a.Rows, a.Cols, len(x), len(y)))
	}
	if !gemvCols(alpha, a, 0, a.Rows, 0, a.Cols, x, beta, y, beta == 1) {
		scaleOrZero(beta, y)
	}
}

// gemvCols is the column sweep every axpy-form kernel shares:
// y += A[i0:i1, k0:k1] * (alpha * x[k0:k1]), columns applied in ascending
// order and zero coefficients skipped. scaled says whether y has already
// absorbed its beta scaling; if not, the first contributing column fuses
// it. It returns the updated flag (false: nothing contributed, the caller
// still owes y its scaling). Once y is scaled the columns go four at a
// time through axpy4.
func gemvCols(alpha float64, a *Dense, i0, i1, k0, k1 int, x []float64, beta float64, y []float64, scaled bool) bool {
	k := k0
	for ; !scaled && k < k1; k++ {
		axj := alpha * x[k]
		if axj == 0 {
			continue
		}
		if beta == 0 {
			for i, v := range a.Col(k)[i0:i1] {
				y[i] = axj * v
			}
		} else {
			for i, v := range a.Col(k)[i0:i1] {
				// Two statements so the compiler cannot contract the
				// scale and the update into one fused multiply-add,
				// keeping results bit-identical to the two-pass form.
				t := beta * y[i]
				y[i] = t + axj*v
			}
		}
		scaled = true
	}
	for ; k+4 <= k1; k += 4 {
		axpy4(alpha*x[k], alpha*x[k+1], alpha*x[k+2], alpha*x[k+3],
			a.Col(k)[i0:i1], a.Col(k + 1)[i0:i1], a.Col(k + 2)[i0:i1], a.Col(k + 3)[i0:i1], y)
	}
	for ; k < k1; k++ {
		Axpy(alpha*x[k], a.Col(k)[i0:i1], y)
	}
	return scaled
}

// scaleOrZero applies y := beta*y; beta == 0 overwrites (NaN and Inf in y
// do not survive), as BLAS specifies.
func scaleOrZero(beta float64, y []float64) {
	if beta == 0 {
		Zero(y)
	} else {
		Scal(beta, y)
	}
}

// GemvT computes y := alpha*A'*x + beta*y. A is Rows x Cols, x has length
// Rows, y has length Cols. Each y[j] is a dot product of column j with x,
// again contiguous in column-major layout. This is the kernel behind the
// CGS projection r = V' v.
func GemvT(alpha float64, a *Dense, x []float64, beta float64, y []float64) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("la: GemvT shape mismatch A=%dx%d x=%d y=%d", a.Rows, a.Cols, len(x), len(y)))
	}
	gemvTCols(alpha, a, 0, a.Cols, x, beta, y)
}

// gemvTCols is the dot sweep every dot-form kernel shares:
// y[j] := alpha * (A[:, j]'x) + beta*y[j] for j in [j0, j1), each dot
// product accumulated in index order exactly as Dot, four columns at a
// time through dot4 so x is read once per group.
func gemvTCols(alpha float64, a *Dense, j0, j1 int, x []float64, beta float64, y []float64) {
	j := j0
	for ; j+4 <= j1; j += 4 {
		d0, d1, d2, d3 := dot4(a.Col(j), a.Col(j+1), a.Col(j+2), a.Col(j+3), x)
		y[j] = axpby(alpha, d0, beta, y[j])
		y[j+1] = axpby(alpha, d1, beta, y[j+1])
		y[j+2] = axpby(alpha, d2, beta, y[j+2])
		y[j+3] = axpby(alpha, d3, beta, y[j+3])
	}
	for ; j < j1; j++ {
		y[j] = axpby(alpha, Dot(a.Col(j), x), beta, y[j])
	}
}

// axpby is the store of every dot-form kernel: alpha*d + beta*y, or
// alpha*d when beta is 0 (a NaN or Inf in y does not survive).
func axpby(alpha, d, beta, y float64) float64 {
	if beta == 0 {
		return alpha * d
	}
	return alpha*d + beta*y
}

// gramSweep sets C[i, j] := alpha*(A_i'B_j) + beta*C[i, j] for every
// column j of B and every column i of A — below j+1 only, when upper.
// Four columns of B at a time, 4x4 blocks go through gramTile; the rows
// of a block column the tiles leave, and the last B.Cols mod 4 columns,
// go through gemvTCols. With upper the tiles reach the diagonal and
// compute whole diagonal tiles, lower half included.
func gramSweep(alpha float64, a, b *Dense, beta float64, c *Dense, upper bool) {
	end := func(j int) int {
		if upper {
			return j + 1
		}
		return a.Cols
	}
	j := 0
	for ; j+4 <= b.Cols; j += 4 {
		i := 0
		for ; i+4 <= end(j+3); i += 4 {
			var t [16]float64
			gramTile(a, i, b, j, &t)
			for jj := 0; jj < 4; jj++ {
				cj := c.Col(j + jj)[i : i+4]
				for ii, d := range t[4*jj : 4*jj+4] {
					cj[ii] = axpby(alpha, d, beta, cj[ii])
				}
			}
		}
		for jj := j; jj < j+4; jj++ {
			gemvTCols(alpha, a, i, end(jj), b.Col(jj), beta, c.Col(jj))
		}
	}
	for ; j < b.Cols; j++ {
		gemvTCols(alpha, a, 0, end(j), b.Col(j), beta, c.Col(j))
	}
}

// GemmNN computes C := alpha*A*B + beta*C with A (m x k), B (k x n),
// C (m x n). The kernel iterates B column-by-column and applies the axpy
// form of Gemv, keeping all accesses to A and C contiguous per column.
func GemmNN(alpha float64, a, b *Dense, beta float64, c *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("la: GemmNN shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	if min(a.Rows, a.Cols, b.Cols) >= gemmTileMin {
		gemmNNTiled(alpha, a, b, beta, c)
		return
	}
	for j := 0; j < b.Cols; j++ {
		Gemv(alpha, a, b.Col(j), beta, c.Col(j))
	}
}

// GemmTN computes C := alpha*A'*B + beta*C with A (k x m), B (k x n),
// C (m x n). With A and B tall-skinny this is the Gram-matrix kernel
// B := V'V of CholQR and SVQR.
func GemmTN(alpha float64, a, b *Dense, beta float64, c *Dense) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("la: GemmTN shape mismatch A=%dx%d B=%dx%d C=%dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	gramSweep(alpha, a, b, beta, c, false)
}

// Syrk computes the symmetric rank-k update C := A'*A for tall-skinny A,
// filling both triangles of the (A.Cols x A.Cols) result. The upper
// triangle is computed by dot products and mirrored into the lower one.
// A diagonal 4x4 tile is computed whole and its lower half overwritten by
// the mirror: IEEE multiplication commutes and both halves add their
// products in the same row order, so the discarded entries are the same
// numbers anyway.
func Syrk(a *Dense, c *Dense) {
	n := a.Cols
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("la: Syrk shape mismatch A=%dx%d C=%dx%d", a.Rows, a.Cols, c.Rows, c.Cols))
	}
	gramSweep(1, a, a, 0, c, true)
	for j := 0; j < n; j++ {
		for i, d := range c.Col(j)[:j] {
			c.Set(j, i, d)
		}
	}
}

// TrsmRightUpper solves V := V * inv(R) in place for an upper-triangular
// R (n x n) and V (m x n). This is the final step of CholQR: the basis
// panel is multiplied by the inverse Cholesky factor column by column.
func TrsmRightUpper(v *Dense, r *Dense) {
	n := v.Cols
	if r.Rows != n || r.Cols != n {
		panic(fmt.Sprintf("la: TrsmRightUpper shape mismatch V=%dx%d R=%dx%d", v.Rows, v.Cols, r.Rows, r.Cols))
	}
	for j := 0; j < n; j++ {
		vj := v.Col(j)
		// v_j := (v_j - sum_{i<j} v_i * r_ij) / r_jj
		gemvCols(-1, v, 0, v.Rows, 0, j, r.Col(j), 1, vj, true)
		d := r.At(j, j)
		if d == 0 {
			panic("la: TrsmRightUpper singular R")
		}
		Scal(1/d, vj)
	}
}
