package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MulVec computes y := A x row by row, the reference product the device
// formats are checked against. Lengths must match the matrix shape.
func (a *CSR) MulVec(y, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVec shape mismatch A=%dx%d x=%d y=%d", a.Rows, a.Cols, len(x), len(y)))
	}
	for i := 0; i < a.Rows; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.ColIdx[k]]
		}
		y[i] = s
	}
}

// testMatrix builds the 4x4 example
//
//	[ 2 -1  0  0 ]
//	[-1  2 -1  0 ]
//	[ 0 -1  2 -1 ]
//	[ 0  0 -1  2 ]
func testMatrix() *CSR {
	return FromCoords(4, 4, []Coord{
		{0, 0, 2}, {0, 1, -1},
		{1, 0, -1}, {1, 1, 2}, {1, 2, -1},
		{2, 1, -1}, {2, 2, 2}, {2, 3, -1},
		{3, 2, -1}, {3, 3, 2},
	})
}

// randCSR builds a random sparse square matrix with a guaranteed nonzero
// diagonal and ~deg off-diagonal entries per row.
func randCSR(rng *rand.Rand, n, deg int) *CSR {
	entries := make([]Coord, 0, n*(deg+1))
	for i := 0; i < n; i++ {
		entries = append(entries, Coord{i, i, 4 + rng.Float64()})
		for d := 0; d < deg; d++ {
			j := rng.Intn(n)
			entries = append(entries, Coord{i, j, rng.NormFloat64()})
		}
	}
	return FromCoords(n, n, entries)
}

func TestFromCoordsBasics(t *testing.T) {
	a := testMatrix()
	if a.Rows != 4 || a.Cols != 4 || a.NNZ() != 10 {
		t.Fatalf("shape %dx%d nnz %d", a.Rows, a.Cols, a.NNZ())
	}
	if a.At(0, 0) != 2 || a.At(1, 2) != -1 || a.At(0, 3) != 0 {
		t.Fatal("At values wrong")
	}
	cols, vals := a.Row(1)
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 1 || cols[2] != 2 {
		t.Fatalf("Row(1) cols = %v", cols)
	}
	if vals[1] != 2 {
		t.Fatalf("Row(1) vals = %v", vals)
	}
}

func TestFromCoordsSumsDuplicates(t *testing.T) {
	a := FromCoords(2, 2, []Coord{{0, 0, 1}, {0, 0, 2.5}, {1, 1, 1}})
	if a.NNZ() != 2 {
		t.Fatalf("nnz = %d, want duplicates merged", a.NNZ())
	}
	if a.At(0, 0) != 3.5 {
		t.Fatalf("summed value = %v", a.At(0, 0))
	}
}

func TestFromCoordsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromCoords(2, 2, []Coord{{2, 0, 1}})
}

func TestMulVec(t *testing.T) {
	a := testMatrix()
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.MulVec(y, x)
	want := []float64{0, 0, 0, 5}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-15 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestMulVecLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	a := randCSR(rng, 200, 5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x1 := make([]float64, 200)
		x2 := make([]float64, 200)
		for i := range x1 {
			x1[i] = r.NormFloat64()
			x2[i] = r.NormFloat64()
		}
		alpha := r.NormFloat64()
		// A(x1 + alpha x2) == A x1 + alpha A x2
		sum := make([]float64, 200)
		for i := range sum {
			sum[i] = x1[i] + alpha*x2[i]
		}
		y1 := make([]float64, 200)
		y2 := make([]float64, 200)
		ys := make([]float64, 200)
		a.MulVec(y1, x1)
		a.MulVec(y2, x2)
		a.MulVec(ys, sum)
		for i := range ys {
			want := y1[i] + alpha*y2[i]
			if math.Abs(ys[i]-want) > 1e-10*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	a := randCSR(rng, 50, 4)
	at := a.Transpose()
	for i := 0; i < 50; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if at.At(j, i) != vals[k] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if at.NNZ() != a.NNZ() {
		t.Fatal("transpose changed nnz")
	}
	// (A')' == A
	att := at.Transpose()
	for i := 0; i <= a.Rows; i++ {
		if att.RowPtr[i] != a.RowPtr[i] {
			t.Fatal("double transpose rowptr mismatch")
		}
	}
	for k := range a.Val {
		if att.ColIdx[k] != a.ColIdx[k] || att.Val[k] != a.Val[k] {
			t.Fatal("double transpose entries mismatch")
		}
	}
}

func TestTransposeMulVec(t *testing.T) {
	// y'Ax == x'A'y for random vectors (adjoint identity).
	rng := rand.New(rand.NewSource(52))
	a := randCSR(rng, 80, 6)
	at := a.Transpose()
	x := make([]float64, 80)
	y := make([]float64, 80)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	ax := make([]float64, 80)
	aty := make([]float64, 80)
	a.MulVec(ax, x)
	at.MulVec(aty, y)
	var lhs, rhs float64
	for i := range x {
		lhs += y[i] * ax[i]
		rhs += x[i] * aty[i]
	}
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestExtractRows(t *testing.T) {
	a := testMatrix()
	s := a.ExtractRows([]int{2, 0})
	if s.Rows != 2 || s.Cols != 4 {
		t.Fatalf("shape %dx%d", s.Rows, s.Cols)
	}
	if s.At(0, 1) != -1 || s.At(0, 2) != 2 || s.At(0, 3) != -1 {
		t.Fatal("row 0 should be old row 2")
	}
	if s.At(1, 0) != 2 || s.At(1, 1) != -1 {
		t.Fatal("row 1 should be old row 0")
	}
	empty := a.ExtractRows(nil)
	if empty.Rows != 0 || empty.NNZ() != 0 {
		t.Fatal("empty extraction")
	}
}

func TestRelabelCols(t *testing.T) {
	a := FromCoords(2, 4, []Coord{{0, 3, 1}, {0, 1, 2}, {1, 2, 3}})
	// keep only columns {1,2,3} -> {0,1,2}
	m := []int{-1, 0, 1, 2}
	a.RelabelCols(m, 3)
	if a.Cols != 3 {
		t.Fatalf("cols = %d", a.Cols)
	}
	if a.At(0, 2) != 1 || a.At(0, 0) != 2 || a.At(1, 1) != 3 {
		t.Fatal("relabel values wrong")
	}
	// rows re-sorted ascending
	cols, _ := a.Row(0)
	if cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("row not sorted: %v", cols)
	}
}

func TestRelabelColsIncompletePanics(t *testing.T) {
	a := FromCoords(1, 2, []Coord{{0, 1, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.RelabelCols([]int{0, -1}, 1)
}

func TestPermuteIdentity(t *testing.T) {
	a := testMatrix()
	p := a.Permute([]int{0, 1, 2, 3})
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if p.At(i, j) != a.At(i, j) {
				t.Fatal("identity permutation changed matrix")
			}
		}
	}
}

func TestPermuteReversal(t *testing.T) {
	a := testMatrix()
	perm := []int{3, 2, 1, 0}
	p := a.Permute(perm)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if p.At(i, j) != a.At(perm[i], perm[j]) {
				t.Fatalf("permute mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPermutePreservesSpMV(t *testing.T) {
	// (PAP')(Px) == P(Ax): SpMV commutes with symmetric permutation.
	rng := rand.New(rand.NewSource(53))
	n := 60
	a := randCSR(rng, n, 4)
	perm := rng.Perm(n)
	p := a.Permute(perm)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	px := make([]float64, n)
	for newIdx, old := range perm {
		px[newIdx] = x[old]
	}
	ax := make([]float64, n)
	a.MulVec(ax, x)
	pax := make([]float64, n)
	p.MulVec(pax, px)
	for newIdx, old := range perm {
		if math.Abs(pax[newIdx]-ax[old]) > 1e-12*(1+math.Abs(ax[old])) {
			t.Fatal("permutation does not commute with SpMV")
		}
	}
}

func TestMaxRowNNZ(t *testing.T) {
	a := testMatrix()
	if got := a.MaxRowNNZ(); got != 3 {
		t.Fatalf("MaxRowNNZ = %d", got)
	}
	if got := NewCSR(3, 3, 0).MaxRowNNZ(); got != 0 {
		t.Fatalf("empty MaxRowNNZ = %d", got)
	}
}

func TestClone(t *testing.T) {
	a := testMatrix()
	c := a.Clone()
	c.Val[0] = 99
	if a.Val[0] == 99 {
		t.Fatal("Clone aliases")
	}
}
