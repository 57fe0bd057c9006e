package la

import (
	"fmt"
	"math"
)

// HessenbergLS solves the small least-squares problem
//
//	y := argmin_z || c - H z ||_2
//
// for an (k+1) x k upper Hessenberg H, the problem GMRES solves at the end
// of every restart cycle (about 3(m+1)^2 flops, done on the CPU in the
// paper). It applies a sequence of Givens rotations that reduce H to upper
// triangular form while transforming the right-hand side, then
// back-substitutes. Returns the solution y and the residual norm
// |c~_{k+1}|, which equals the GMRES residual norm when c = beta*e_1.
func HessenbergLS(h *Dense, c []float64) (y []float64, resNorm float64) {
	k := h.Cols
	if h.Rows != k+1 {
		panic(fmt.Sprintf("la: HessenbergLS needs (k+1)xk, got %dx%d", h.Rows, h.Cols))
	}
	if len(c) != k+1 {
		panic(fmt.Sprintf("la: HessenbergLS rhs length %d, want %d", len(c), k+1))
	}
	r := h.Clone()
	g := make([]float64, k+1)
	copy(g, c)
	for j := 0; j < k; j++ {
		// Rotation eliminating r[j+1][j].
		cs, sn := givensR(r.At(j, j), r.At(j+1, j))
		for col := j; col < k; col++ {
			a, b := r.At(j, col), r.At(j+1, col)
			r.Set(j, col, cs*a+sn*b)
			r.Set(j+1, col, -sn*a+cs*b)
		}
		gj, gj1 := g[j], g[j+1]
		g[j] = cs*gj + sn*gj1
		g[j+1] = -sn*gj + cs*gj1
	}
	resNorm = math.Abs(g[k])
	y = make([]float64, k)
	copy(y, g[:k])
	UpperSolve(r.RowView(0, k).ColView(0, k), y)
	return y, resNorm
}

// givensR computes a real Givens rotation (cs, sn) such that
// [cs sn; -sn cs] [a; b] = [r; 0].
func givensR(a, b float64) (cs, sn float64) {
	if b == 0 {
		return 1, 0
	}
	if a == 0 {
		return 0, 1
	}
	r := math.Hypot(a, b)
	return a / r, b / r
}

// GivensQR maintains a progressively-built QR factorization of a growing
// Hessenberg matrix, the standard incremental machinery inside a GMRES
// iteration: after column j is appended, the rotations so far are applied,
// a new rotation is generated, and the running residual norm is available
// in O(j) work per step.
type GivensQR struct {
	cs, sn []float64 // accumulated rotations
	r      *Dense    // triangularized columns
	g      []float64 // transformed right-hand side
	k      int       // columns absorbed so far
}

// NewGivensQR prepares an incremental solver for up to m columns with
// initial residual beta (the right-hand side is beta*e_1).
func NewGivensQR(m int, beta float64) *GivensQR {
	q := &GivensQR{
		cs: make([]float64, m),
		sn: make([]float64, m),
		r:  NewDense(m+1, m),
		g:  make([]float64, m+1),
	}
	q.g[0] = beta
	return q
}

// Size returns the maximum column count the solver was allocated for.
func (q *GivensQR) Size() int { return len(q.cs) }

// Reset rewinds the solver for a fresh system with initial residual beta
// (right-hand side beta*e_1), reusing every allocation. Only the
// transformed right-hand side needs clearing: Append fully overwrites the
// rotation entries and the column prefix it reads, and Solve only touches
// the leading k x k block written this cycle, so stale factor data is
// never observed.
func (q *GivensQR) Reset(beta float64) {
	for i := range q.g {
		q.g[i] = 0
	}
	q.g[0] = beta
	q.k = 0
}

// Append absorbs Hessenberg column h (length k+2 for the k-th column,
// 0-indexed: entries h[0..k+1]) and returns the updated residual norm.
func (q *GivensQR) Append(h []float64) float64 {
	k := q.k
	if len(h) != k+2 {
		panic(fmt.Sprintf("la: GivensQR.Append column length %d, want %d", len(h), k+2))
	}
	col := q.r.Col(k)
	copy(col[:k+2], h)
	// Apply previous rotations to the new column.
	for i := 0; i < k; i++ {
		a, b := col[i], col[i+1]
		col[i] = q.cs[i]*a + q.sn[i]*b
		col[i+1] = -q.sn[i]*a + q.cs[i]*b
	}
	// New rotation to kill the subdiagonal entry.
	cs, sn := givensR(col[k], col[k+1])
	q.cs[k], q.sn[k] = cs, sn
	col[k] = cs*col[k] + sn*col[k+1]
	col[k+1] = 0
	gk, gk1 := q.g[k], q.g[k+1]
	q.g[k] = cs*gk + sn*gk1
	q.g[k+1] = -sn*gk + cs*gk1
	q.k++
	return math.Abs(q.g[q.k])
}

// ResidualNorm returns the current least-squares residual norm.
func (q *GivensQR) ResidualNorm() float64 { return math.Abs(q.g[q.k]) }

// Solve back-substitutes for the current minimizer y of length k. An
// exactly zero pivot (a singular A can make one) ends the solve at the
// leading nonsingular block: the columns from that pivot on get zero
// weight, and the restart loop carries on instead of dividing by zero.
func (q *GivensQR) Solve() []float64 {
	k := q.k
	y := make([]float64, k)
	n := 0
	for n < k && q.r.At(n, n) != 0 {
		n++
	}
	copy(y, q.g[:n])
	UpperSolve(q.r.RowView(0, n).ColView(0, n), y[:n])
	return y
}
