package la

import (
	"fmt"
	"math"
)

// Dense is a column-major dense matrix. Column-major layout is chosen
// because the solver manipulates tall-skinny basis matrices
// V = [v_1 v_2 ... v_{s+1}] whose columns must be cheap to address as
// contiguous vectors: Col(j) is a zero-copy slice.
//
// Stride is the distance in elements between the starts of consecutive
// columns; it is at least Rows and allows views of larger allocations
// (the paper pads the leading dimension of V to a multiple of the panel
// height for the batched GEMM — we support the same pattern).
type Dense struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// NewDense allocates a Rows x Cols zero matrix with Stride == Rows.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: NewDense negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Stride: rows, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[j*m.Stride+i] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[j*m.Stride+i] = v }

// Col returns column j as a zero-copy slice of length Rows.
func (m *Dense) Col(j int) []float64 {
	return m.Data[j*m.Stride : j*m.Stride+m.Rows]
}

// ColView returns a Dense view of columns [j0, j1) sharing storage with m.
// Its Data ends with the last row of column j1-1, not a stride later: a
// RowView's Data stops there too, so that is all a view may assume.
func (m *Dense) ColView(j0, j1 int) *Dense {
	if j0 < 0 || j1 < j0 || j1 > m.Cols {
		panic(viewRangeError{"ColView", "cols", j0, j1, m.Cols})
	}
	var data []float64
	if j1 > j0 {
		data = m.Data[j0*m.Stride : (j1-1)*m.Stride+m.Rows]
	}
	return &Dense{Rows: m.Rows, Cols: j1 - j0, Stride: m.Stride, Data: data}
}

// RowView returns a Dense view of rows [i0, i1) sharing storage with m.
// The view keeps m's stride.
func (m *Dense) RowView(i0, i1 int) *Dense {
	if i0 < 0 || i1 < i0 || i1 > m.Rows {
		panic(viewRangeError{"RowView", "rows", i0, i1, m.Rows})
	}
	n := len(m.Data) - i0
	if m.Cols == 0 {
		n = 0
	}
	return &Dense{Rows: i1 - i0, Cols: m.Cols, Stride: m.Stride, Data: m.Data[i0 : i0+n]}
}

// viewRangeError is what ColView and RowView panic with. A small value
// keeps both cheap enough to inline, so a view that does not escape its
// caller stays on the stack; the message is formatted only when printed.
type viewRangeError struct {
	op, unit  string // "ColView", "cols" or "RowView", "rows"
	lo, hi, n int    // the asked range [lo, hi) and the extent
}

func (e viewRangeError) Error() string {
	return fmt.Sprintf("la: %s [%d,%d) out of range with %d %s", e.op, e.lo, e.hi, e.n, e.unit)
}

// Clone returns a deep copy of m with a compact stride.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		copy(c.Col(j), m.Col(j))
	}
	return c
}

// CopyFrom copies the contents of src into m. Shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("la: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero sets all elements (including any stride padding rows inside the
// column span) to zero.
func (m *Dense) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.Stride : j*m.Stride+m.Rows]
		for i := range col {
			col[i] = 0
		}
	}
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i, v := range col {
			t.Set(j, i, v)
		}
	}
	return t
}

// FrobNorm returns the Frobenius norm of m.
func (m *Dense) FrobNorm() float64 {
	var scale, ssq float64
	ssq = 1
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if v == 0 {
				continue
			}
			a := math.Abs(v)
			if scale < a {
				r := scale / a
				ssq = 1 + ssq*r*r
				scale = a
			} else {
				r := a / scale
				ssq += r * r
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element of m.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// Equalish reports whether m and b have the same shape and agree
// element-wise within tol.
func (m *Dense) Equalish(b *Dense, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		mc, bc := m.Col(j), b.Col(j)
		for i := range mc {
			if math.Abs(mc[i]-bc[i]) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are
// summarized by shape only.
func (m *Dense) String() string {
	if m.Rows > 12 || m.Cols > 12 {
		return fmt.Sprintf("Dense{%dx%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% .4e ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
