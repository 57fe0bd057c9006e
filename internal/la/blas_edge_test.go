package la

import "testing"

// Degenerate-shape coverage: every BLAS entry point must accept empty
// operands (zero rows and/or zero columns) without panicking, and the
// beta handling of the multiply kernels must still reach y / C.

func TestGemvZeroDims(t *testing.T) {
	// Zero columns: y := beta*y is all that remains.
	y := []float64{2, 4}
	Gemv(3, NewDense(2, 0), nil, 0.5, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("0-col Gemv y = %v", y)
	}
	// Zero rows: nothing to write, must not panic.
	Gemv(3, NewDense(0, 4), []float64{1, 2, 3, 4}, 2, []float64{})
	// Zero both.
	Gemv(1, NewDense(0, 0), nil, 0, nil)
}

func TestGemvTZeroDims(t *testing.T) {
	// Zero rows: every dot is empty, y := beta*y (+ alpha*0).
	y := []float64{1, 1, 1}
	GemvT(2, NewDense(0, 3), []float64{}, 3, y)
	if y[0] != 3 || y[1] != 3 || y[2] != 3 {
		t.Fatalf("0-row GemvT y = %v", y)
	}
	// Zero cols: empty y, must not panic.
	GemvT(2, NewDense(5, 0), make([]float64, 5), 0, nil)
}

func TestGemmNNZeroDims(t *testing.T) {
	// Inner dimension zero: C := beta*C.
	c := NewDense(2, 2)
	c.Set(0, 0, 4)
	GemmNN(1, NewDense(2, 0), NewDense(0, 2), 0.5, c)
	if c.At(0, 0) != 2 {
		t.Fatalf("0-inner GemmNN C[0,0] = %v", c.At(0, 0))
	}
	// Zero output rows / cols.
	GemmNN(1, NewDense(0, 3), NewDense(3, 2), 0, NewDense(0, 2))
	GemmNN(1, NewDense(2, 3), NewDense(3, 0), 1, NewDense(2, 0))
}

func TestGemmTNZeroDims(t *testing.T) {
	// Inner (shared row) dimension zero: C := beta*C + alpha*0.
	c := NewDense(2, 2)
	c.Set(1, 1, 6)
	GemmTN(1, NewDense(0, 2), NewDense(0, 2), 0.5, c)
	if c.At(1, 1) != 3 {
		t.Fatalf("0-inner GemmTN C[1,1] = %v", c.At(1, 1))
	}
	GemmTN(1, NewDense(4, 0), NewDense(4, 2), 0, NewDense(0, 2))
	GemmTN(1, NewDense(4, 2), NewDense(4, 0), 1, NewDense(2, 0))
}

func TestSyrkZeroDims(t *testing.T) {
	Syrk(NewDense(0, 0), NewDense(0, 0))
	// Zero rows, nonzero cols: Gram matrix of empty columns is zero.
	c := NewDense(2, 2)
	c.Set(0, 1, 9)
	Syrk(NewDense(0, 2), c)
	if c.At(0, 1) != 0 || c.At(1, 0) != 0 {
		t.Fatalf("0-row Syrk C = %v", c)
	}
	Syrk(NewDense(5, 0), NewDense(0, 0))
}

func TestTrsmZeroDims(t *testing.T) {
	// Zero columns: nothing to solve.
	TrsmRightUpper(NewDense(3, 0), NewDense(0, 0))
	// Zero rows with nonzero triangular size: column slices are empty.
	TrsmRightUpper(NewDense(0, 2), Eye(2))
}
