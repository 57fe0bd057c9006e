package la

import (
	"math/rand"
	"testing"
)

// naiveGemm is the reference triple loop used to validate every GEMM path.
func naiveGemm(transA bool, alpha float64, a, b *Dense) *Dense {
	var m, k int
	if transA {
		m, k = a.Cols, a.Rows
	} else {
		m, k = a.Rows, a.Cols
	}
	n := b.Cols
	c := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				var av float64
				if transA {
					av = a.At(l, i)
				} else {
					av = a.At(i, l)
				}
				s += av * b.At(l, j)
			}
			c.Set(i, j, alpha*s)
		}
	}
	return c
}

func TestGemvAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, shape := range [][2]int{{1, 1}, {5, 3}, {3, 5}, {40, 7}, {7, 40}} {
		a := randDense(rng, shape[0], shape[1])
		x := randVec(rng, shape[1])
		y := randVec(rng, shape[0])
		y2 := make([]float64, len(y))
		copy(y2, y)
		Gemv(1.5, a, x, 0.5, y)
		// reference
		for i := 0; i < a.Rows; i++ {
			var s float64
			for j := 0; j < a.Cols; j++ {
				s += a.At(i, j) * x[j]
			}
			y2[i] = 1.5*s + 0.5*y2[i]
		}
		for i := range y {
			if !almostEq(y[i], y2[i], 1e-12) {
				t.Fatalf("Gemv %v mismatch at %d: %v vs %v", shape, i, y[i], y2[i])
			}
		}
	}
}

func TestGemvBetaZeroIgnoresNaN(t *testing.T) {
	a := Eye(2)
	x := []float64{1, 2}
	y := []float64{0, 0}
	// beta=0 must overwrite y regardless of prior content.
	y[0] = 1e300
	Gemv(1, a, x, 0, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("Gemv beta=0 got %v", y)
	}
}

func TestGemvT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randDense(rng, 30, 6)
	x := randVec(rng, 30)
	y := make([]float64, 6)
	GemvT(1, a, x, 0, y)
	for j := 0; j < 6; j++ {
		if !almostEq(y[j], Dot(a.Col(j), x), 1e-13) {
			t.Fatalf("GemvT mismatch at %d", j)
		}
	}
	// beta accumulation path
	y2 := make([]float64, 6)
	for i := range y2 {
		y2[i] = 1
	}
	GemvT(2, a, x, 3, y2)
	for j := 0; j < 6; j++ {
		want := 2*Dot(a.Col(j), x) + 3
		if !almostEq(y2[j], want, 1e-12) {
			t.Fatalf("GemvT beta path mismatch at %d", j)
		}
	}
}

func TestGemmNN(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randDense(rng, 8, 5)
	b := randDense(rng, 5, 4)
	c := NewDense(8, 4)
	GemmNN(2, a, b, 0, c)
	want := naiveGemm(false, 2, a, b)
	if !c.Equalish(want, 1e-12) {
		t.Fatal("GemmNN mismatch")
	}
}

func TestGemmTN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randDense(rng, 20, 4)
	b := randDense(rng, 20, 3)
	c := NewDense(4, 3)
	GemmTN(1, a, b, 0, c)
	want := naiveGemm(true, 1, a, b)
	if !c.Equalish(want, 1e-12) {
		t.Fatal("GemmTN mismatch")
	}
}

func TestSyrkSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randDense(rng, 50, 6)
	c := NewDense(6, 6)
	Syrk(a, c)
	want := naiveGemm(true, 1, a, a)
	if !c.Equalish(want, 1e-12) {
		t.Fatal("Syrk mismatch vs naive A'A")
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if c.At(i, j) != c.At(j, i) {
				t.Fatal("Syrk result not exactly symmetric")
			}
		}
	}
}

func TestTrsmTrmmRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// Build a well-conditioned upper-triangular R.
	n := 7
	r := NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			r.Set(i, j, 0.3*rng.NormFloat64())
		}
		r.Set(j, j, 1+rng.Float64())
	}
	v := randDense(rng, 40, n)
	orig := v.Clone()
	oracleTrmmRightUpper(v, r) // V := V R
	TrsmRightUpper(v, r)       // V := V R^{-1}
	if !v.Equalish(orig, 1e-10) {
		t.Fatal("Trmm/Trsm round trip failed")
	}
}

func TestTrsmMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 5
	r := NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			r.Set(i, j, rng.NormFloat64())
		}
		r.Set(j, j, 2+rng.Float64())
	}
	v := randDense(rng, 12, n)
	v2 := v.Clone()
	TrsmRightUpper(v, r)
	inv := InvertUpper(r)
	want := NewDense(12, n)
	GemmNN(1, v2, inv, 0, want)
	if !v.Equalish(want, 1e-10) {
		t.Fatal("TrsmRightUpper disagrees with explicit inverse")
	}
}

func TestTrsmSingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on singular R")
		}
	}()
	r := NewDense(2, 2)
	r.Set(0, 0, 1) // r_11 = 0
	v := NewDense(3, 2)
	TrsmRightUpper(v, r)
}

func TestGemmShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	GemmNN(1, NewDense(2, 3), NewDense(4, 2), 0, NewDense(2, 2))
}
