package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	// alpha = 0 must leave y untouched.
	Axpy(0, x, y)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy(0) modified y")
		}
	}
}

func TestScal(t *testing.T) {
	x := []float64{1, -2, 4}
	Scal(-0.5, x)
	want := []float64{-0.5, 1, -2}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Scal x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestNrm2(t *testing.T) {
	if got := Nrm2([]float64{3, 4}); !almostEq(got, 5, 1e-15) {
		t.Fatalf("Nrm2 = %v, want 5", got)
	}
	if got := Nrm2(nil); got != 0 {
		t.Fatalf("Nrm2(nil) = %v, want 0", got)
	}
	// Overflow guard: components near sqrt(MaxFloat64).
	big := math.MaxFloat64 / 4
	got := Nrm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Nrm2 overflowed: %v", got)
	}
	if !almostEq(got, big*math.Sqrt2, 1e-14) {
		t.Fatalf("Nrm2 big = %v", got)
	}
	// Underflow guard.
	small := math.SmallestNonzeroFloat64 * 4
	got = Nrm2([]float64{small, small})
	if got == 0 {
		t.Fatalf("Nrm2 underflowed to zero")
	}
}

func TestNrm2MatchesDot(t *testing.T) {
	f := func(xs []float64) bool {
		// Keep magnitudes sane for the naive comparison.
		for i := range xs {
			xs[i] = math.Mod(xs[i], 1e6)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		naive := math.Sqrt(Dot(xs, xs))
		return almostEq(Nrm2(xs), naive, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randDense(rng *rand.Rand, m, n int) *Dense {
	a := NewDense(m, n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	return a
}
