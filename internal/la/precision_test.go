package la

import (
	"math"
	"math/rand"
	"testing"
)

func TestBF16Rounding(t *testing.T) {
	// Values exactly representable in bfloat16 survive the round-trip;
	// everything else lands on one of the two neighbouring bf16 values
	// with ties to even.
	exact := []float64{0, 1, -1, 0.5, 2, -3, 1.5, 256, 1.0 / 1024}
	for _, v := range exact {
		if got := BF16(v); got != v {
			t.Fatalf("BF16(%v) = %v, want exact round-trip", v, got)
		}
	}
	// 1 + 2^-9 is exactly halfway between bf16 neighbours 1 and 1+2^-8:
	// round-to-even picks 1.
	if got := BF16(1 + 1.0/512); got != 1 {
		t.Fatalf("BF16(1+2^-9) = %v, want 1 (ties to even)", got)
	}
	// 1 + 3*2^-9 is halfway between 1+2^-8 and 1+2^-7: even mantissa is
	// 1+2^-7.
	if got := BF16(1 + 3.0/512); got != 1+1.0/128 {
		t.Fatalf("BF16(1+3*2^-9) = %v, want 1+2^-7 (ties to even)", got)
	}
	// Specials survive.
	if got := BF16(math.Inf(1)); !math.IsInf(got, 1) {
		t.Fatalf("BF16(+Inf) = %v", got)
	}
	if got := BF16(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("BF16(NaN) = %v", got)
	}
	// Idempotent: a bf16 value rounds to itself.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := BF16(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20)))
		if BF16(v) != v {
			t.Fatalf("BF16 not idempotent at %v", v)
		}
		// Relative error bound: 8-bit mantissa gives eps = 2^-8.
		x := rng.NormFloat64()
		if e := math.Abs(BF16(x)-x) / math.Abs(x); e > 1.0/256 {
			t.Fatalf("BF16(%v) relative error %v > 2^-8", x, e)
		}
	}
}

func TestRoundSliceWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 257)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	f := append([]float64(nil), x...)
	RoundF32(f)
	for i := range f {
		if f[i] != float64(float32(x[i])) {
			t.Fatalf("RoundF32[%d] = %v, want %v", i, f[i], float64(float32(x[i])))
		}
	}
	RoundF32(f) // idempotent
	b := append([]float64(nil), x...)
	RoundBF16(b)
	for i := range b {
		if b[i] != BF16(x[i]) {
			t.Fatalf("RoundBF16[%d] = %v, want %v", i, b[i], BF16(x[i]))
		}
		if BF16(b[i]) != b[i] {
			t.Fatalf("RoundBF16 not idempotent at %d", i)
		}
	}
}

func TestF32KernelsMatchFP64WithinSingle(t *testing.T) {
	// The fp32 kernels agree with their double-precision siblings to a
	// single-precision tolerance, and their results carry no more than
	// float32 information (every output survives a float32 round-trip).
	const rows, k, n = 300, 7, 5
	a := randDense(rand.New(rand.NewSource(1)), rows, k)
	bm := randDense(rand.New(rand.NewSource(2)), k, n)
	tall := randDense(rand.New(rand.NewSource(9)), rows, n)

	c64 := NewDense(rows, n)
	c32 := NewDense(rows, n)
	GemmNN(1, a, bm, 0, c64)
	GemmNNF32(1, a, bm, 0, c32)
	for j := 0; j < n; j++ {
		for i := 0; i < rows; i++ {
			d := math.Abs(c64.At(i, j) - c32.At(i, j))
			if d > 1e-4 {
				t.Fatalf("GemmNNF32 deviates at (%d,%d): %v", i, j, d)
			}
			if v := c32.At(i, j); v != float64(float32(v)) {
				t.Fatalf("GemmNNF32 output not float32-representable at (%d,%d)", i, j)
			}
		}
	}

	g64 := NewDense(n, n)
	g32 := NewDense(n, n)
	GemmTN(1, tall, tall, 0, g64)
	GemmTNF32(1, tall, tall, 0, g32)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if d := math.Abs(g64.At(i, j) - g32.At(i, j)); d > 1e-3 {
				t.Fatalf("GemmTNF32 deviates at (%d,%d): %v", i, j, d)
			}
		}
	}
}

func TestPrecisionKernelsAllocFree(t *testing.T) {
	// The pooled conversion buffers keep the narrow/compute/widen
	// round-trip alloc-free after warm-up.
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const rows, k, n = 512, 6, 4
	a := randDense(rand.New(rand.NewSource(11)), rows, k)
	bm := randDense(rand.New(rand.NewSource(12)), k, n)
	c := NewDense(rows, n)
	g := NewDense(k, k)
	y := make([]float64, rows)
	GemmNNF32(1, a, bm, 0, c) // warm the pool
	if allocs := testing.AllocsPerRun(20, func() {
		GemmNNF32(1, a, bm, 0, c)
		GramF32(a, g)
		RoundF32(y)
		RoundBF16(y)
	}); allocs > 0 {
		t.Fatalf("precision round-trip allocates %v per run, want 0", allocs)
	}
}

// BenchmarkPrecisionAllocs reports allocs/op for one widen/narrow
// round-trip of the fp32 basis-update kernel — the restart-path figure
// the conversion-buffer pool keeps at zero (compare BenchmarkSolveAllocs
// in internal/core).
func BenchmarkPrecisionAllocs(b *testing.B) {
	const rows, k, n = 4096, 10, 10
	a := randDense(rand.New(rand.NewSource(21)), rows, k)
	bm := randDense(rand.New(rand.NewSource(22)), k, n)
	c := randDense(rand.New(rand.NewSource(23)), rows, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNNF32(-1, a, bm, 1, c)
		RoundF32(c.Col(i % n))
	}
}
