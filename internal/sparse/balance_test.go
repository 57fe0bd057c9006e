package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestBalanceRowNormsUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	a := randCSR(rng, 50, 4)
	// Mangle scales badly.
	for i := 0; i < a.Rows; i++ {
		s := math.Pow(10, float64(i%7)-3)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Val[k] *= s
		}
	}
	Balance(a)
	// After the column pass, column norms are exactly 1...
	csq := make([]float64, a.Cols)
	for k, c := range a.ColIdx {
		csq[c] += a.Val[k] * a.Val[k]
	}
	for j, v := range csq {
		if v == 0 {
			continue
		}
		if math.Abs(math.Sqrt(v)-1) > 1e-12 {
			t.Fatalf("column %d norm %v after balance", j, math.Sqrt(v))
		}
	}
	// ...and row norms are within a modest factor of 1 (the column pass
	// perturbs them but cannot blow them up arbitrarily for this class).
	for i, rn := range RowNorms(a) {
		if rn == 0 {
			continue
		}
		if rn > 10 || rn < 1e-3 {
			t.Fatalf("row %d norm %v far from 1 after balance", i, rn)
		}
	}
}

func TestBalanceSolutionMapping(t *testing.T) {
	// Solving the balanced system must recover the original solution:
	// (Dr A Dc)(Dc^-1 x) = Dr b.
	rng := rand.New(rand.NewSource(71))
	n := 40
	a := randCSR(rng, n, 3)
	orig := a.Clone()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	orig.MulVec(b, x)

	rs, cs := Balance(a)
	// Balanced RHS.
	bb := append([]float64(nil), b...)
	ApplyRowScale(rs, bb)
	// Balanced solution xb = Dc^{-1} x.
	xb := make([]float64, n)
	for i := range xb {
		xb[i] = x[i] / cs[i]
	}
	got := make([]float64, n)
	a.MulVec(got, xb)
	for i := range got {
		if math.Abs(got[i]-bb[i]) > 1e-10*(1+math.Abs(bb[i])) {
			t.Fatalf("balanced system inconsistent at %d: %v vs %v", i, got[i], bb[i])
		}
	}
	// And Dc maps xb back to x.
	for i := range x {
		if xi := xb[i] * cs[i]; math.Abs(xi-x[i]) > 1e-12*(1+math.Abs(x[i])) {
			t.Fatal("unscaling the balanced solution failed")
		}
	}
}

func TestBalanceZeroRow(t *testing.T) {
	a := FromCoords(3, 3, []Coord{{0, 0, 5}, {2, 2, 1}})
	rs, cs := Balance(a)
	if rs[1] != 1 || cs[1] != 1 {
		t.Fatal("zero row/col should get scale 1")
	}
	if math.IsNaN(a.At(0, 0)) || a.At(0, 0) == 0 {
		t.Fatal("balance corrupted values")
	}
}

func TestRowNorms(t *testing.T) {
	a := FromCoords(2, 2, []Coord{{0, 0, 3}, {0, 1, 4}, {1, 1, 2}})
	norms := RowNorms(a)
	if math.Abs(norms[0]-5) > 1e-15 || math.Abs(norms[1]-2) > 1e-15 {
		t.Fatalf("RowNorms = %v", norms)
	}
}
