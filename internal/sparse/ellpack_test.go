package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestELLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	a := randCSR(rng, 100, 5)
	e := ToELL(a)
	back := e.ToCSR()
	if back.NNZ() != a.NNZ() {
		t.Fatalf("nnz %d -> %d", a.NNZ(), back.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		bcols, bvals := back.Row(i)
		if len(cols) != len(bcols) {
			t.Fatalf("row %d length changed", i)
		}
		for k := range cols {
			if cols[k] != bcols[k] || vals[k] != bvals[k] {
				t.Fatalf("row %d entry %d changed", i, k)
			}
		}
	}
}

func TestELLMulVecMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 17, 300} {
		a := randCSR(rng, n, 6)
		e := ToELL(a)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		a.MulVec(y1, x)
		e.MulVec(y2, x)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-12*(1+math.Abs(y1[i])) {
				t.Fatalf("n=%d: ELL SpMV mismatch at %d", n, i)
			}
		}
	}
}

func TestELLWidthAndPad(t *testing.T) {
	// A matrix with one dense row forces heavy padding.
	entries := []Coord{{0, 0, 1}}
	n := 10
	for j := 0; j < n; j++ {
		entries = append(entries, Coord{1, j, 1})
	}
	for i := 2; i < n; i++ {
		entries = append(entries, Coord{i, i, 1})
	}
	a := FromCoords(n, n, entries)
	e := ToELL(a)
	if e.Width != n {
		t.Fatalf("Width = %d, want %d", e.Width, n)
	}
	if pr := e.PadRatio(); pr < 4 {
		t.Fatalf("PadRatio = %v, want heavy padding", pr)
	}
	// Banded matrix: no padding at all.
	b := ToELL(FromCoords(3, 3, []Coord{{0, 0, 1}, {1, 1, 1}, {2, 2, 1}}))
	if b.PadRatio() != 1 {
		t.Fatalf("diagonal PadRatio = %v", b.PadRatio())
	}
}

func TestELLEmptyRow(t *testing.T) {
	a := FromCoords(3, 3, []Coord{{0, 0, 2}, {2, 2, 3}}) // row 1 empty
	e := ToELL(a)
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	e.MulVec(y, x)
	if y[0] != 2 || y[1] != 0 || y[2] != 3 {
		t.Fatalf("y = %v", y)
	}
}
