package la

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the dense kernels that dominate the
// orthogonalization strategies (run with go test -bench=. -benchmem).

func benchMatrix(rows, cols int) *Dense {
	rng := rand.New(rand.NewSource(1))
	return randDense(rng, rows, cols)
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := randVec(rng, 1<<16)
	y := randVec(rng, 1<<16)
	b.SetBytes(int64(len(x)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

// benchShapes are the per-device panels of the benchmark workloads
// (`make bench-kernels`): a third of dielFilterV2real@0.004 with m = 60
// (ca-dense-rows, gmres-dense-rows) and of G3_circuit@0.05 with m = 30
// (ca-sparse-cold); window is s+1 at s = 15.
var benchShapes = []struct {
	name            string
	rows, m, window int
}{
	{"diel-1465x61", 1465, 61, 16},
	{"g3-26320x31", 26320, 31, 16},
}

// reportGflops adds the kernel's rate, flops per call over the measured
// time, to a benchmark row: the figure that compares a dot-form, an
// axpy-form and a Gram kernel per flop.
func reportGflops(b *testing.B, flops int) {
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

// BenchmarkGemvT's scalar rows make the same calls with hasAVX2 off,
// every group of four columns through dot4: on amd64 with AVX2 the ratio
// of a pair is what the eight-column vector body buys.
func BenchmarkGemvT(b *testing.B) {
	run := func(b *testing.B) {
		for _, c := range benchShapes {
			b.Run(c.name, func(b *testing.B) {
				a := benchMatrix(c.rows, c.m)
				x := randVec(rand.New(rand.NewSource(3)), c.rows)
				y := make([]float64, c.m)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					GemvT(1, a, x, 0, y)
				}
				reportGflops(b, 2*c.rows*c.m)
			})
		}
	}
	run(b)
	b.Run("scalar", func(b *testing.B) { withVector(false, func() { run(b) }) })
}

// BenchmarkGemv's scalar rows are the same sweep with every group of four
// columns through the Go loop: on amd64 with AVX2 the ratio of a pair is
// what axpy4's vector body buys.
func BenchmarkGemv(b *testing.B) {
	benchGemv(b, func(a *Dense, x, y []float64) { Gemv(-1, a, x, 1, y) })
	b.Run("scalar", func(b *testing.B) {
		benchGemv(b, func(a *Dense, x, y []float64) {
			k := 0
			for ; k+4 <= a.Cols; k += 4 {
				axpy4Scalar(-x[k], -x[k+1], -x[k+2], -x[k+3], a.Col(k), a.Col(k+1), a.Col(k+2), a.Col(k+3), y)
			}
			for ; k < a.Cols; k++ {
				Axpy(-x[k], a.Col(k), y)
			}
		})
	})
}

func benchGemv(b *testing.B, gemv func(a *Dense, x, y []float64)) {
	for _, c := range benchShapes {
		b.Run(c.name, func(b *testing.B) {
			a := benchMatrix(c.rows, c.m)
			x := randVec(rand.New(rand.NewSource(3)), c.m)
			y := make([]float64, c.rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemv(a, x, y)
			}
			reportGflops(b, 2*c.rows*c.m)
		})
	}
}

// BenchmarkGemmTN times the window's Gram matrix (s+1 columns),
// BenchmarkSyrk the window's and the telemetry basis's (m columns, what
// orthoLoss forms). Their scalar rows make the same calls with hasAVX2
// off, every tile four dot4 calls: on amd64 with AVX2 the ratio of a pair
// is what the tile's vector body buys.
func BenchmarkGemmTN(b *testing.B) {
	run := func(b *testing.B) {
		for _, c := range benchShapes {
			benchGram(b, c.name, c.rows, c.window, 2*c.rows*c.window*c.window, func(a, g *Dense) { GemmTN(1, a, a, 0, g) })
		}
	}
	run(b)
	b.Run("scalar", func(b *testing.B) { withVector(false, func() { run(b) }) })
}

func BenchmarkSyrk(b *testing.B) {
	run := func(b *testing.B) {
		for _, c := range benchShapes {
			benchGram(b, c.name+"/window", c.rows, c.window, c.rows*c.window*(c.window+1), Syrk)
			benchGram(b, c.name+"/basis", c.rows, c.m, c.rows*c.m*(c.m+1), Syrk)
		}
	}
	run(b)
	b.Run("scalar", func(b *testing.B) { withVector(false, func() { run(b) }) })
}

// benchGram times gram(a, g) for a rows x cols matrix a; flops counts a
// multiply and an add per row for every entry of g the kernel owes (Syrk
// owes the upper triangle).
func benchGram(b *testing.B, name string, rows, cols, flops int, gram func(a, g *Dense)) {
	b.Run(name, func(b *testing.B) {
		a := benchMatrix(rows, cols)
		g := NewDense(cols, cols)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gram(a, g)
		}
		reportGflops(b, flops)
	})
}

func BenchmarkSyrkGram(b *testing.B) {
	a := benchMatrix(1<<16, 30)
	c := NewDense(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Syrk(a, c)
	}
}

func BenchmarkBatchedGram(b *testing.B) {
	a := benchMatrix(1<<16, 30)
	c := NewDense(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchedGram(a, c)
	}
}

func BenchmarkHouseholderQRTall(b *testing.B) {
	a := benchMatrix(1<<13, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HouseholderQR(a)
	}
}

func BenchmarkCholesky30(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := spdMatrix(rng, 30, 1)
	r := NewDense(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Cholesky(g, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiEig30(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := spdMatrix(rng, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JacobiEig(g)
	}
}

func BenchmarkHessenbergEigenvalues60(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 60
	h := NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j+1 && i < n; i++ {
			h.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HessenbergEigenvalues(h)
	}
}

func BenchmarkHessenbergLS(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	k := 60
	h := NewDense(k+1, k)
	for j := 0; j < k; j++ {
		for i := 0; i <= j+1; i++ {
			h.Set(i, j, rng.NormFloat64())
		}
	}
	c := randVec(rng, k+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HessenbergLS(h, c)
	}
}

func BenchmarkLejaOrder60(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	shifts := make([]complex128, 60)
	for i := range shifts {
		shifts[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LejaOrder(shifts)
	}
}
