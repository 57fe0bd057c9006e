package la

import (
	"math/rand"
	"testing"
)

// naiveGemmNN is the pre-dispatch column-sweep reference: one fused Gemv
// per column of B.
func naiveGemmNN(alpha float64, a, b *Dense, beta float64, c *Dense) {
	for j := 0; j < b.Cols; j++ {
		Gemv(alpha, a, b.Col(j), beta, c.Col(j))
	}
}

// naiveGemmTN is the pre-dispatch dot-sweep reference.
func naiveGemmTN(alpha float64, a, b *Dense, beta float64, c *Dense) {
	for j := 0; j < b.Cols; j++ {
		bj := b.Col(j)
		cj := c.Col(j)
		for i := 0; i < a.Cols; i++ {
			d := Dot(a.Col(i), bj)
			if beta == 0 {
				cj[i] = alpha * d
			} else {
				cj[i] = alpha*d + beta*cj[i]
			}
		}
	}
}

func randTileDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// sprinkleZeros zeroes a fraction of entries so the axj == 0 skip path is
// exercised on both sides of the comparison.
func sprinkleZeros(rng *rand.Rand, m *Dense) {
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = 0
		}
	}
}

// TestTiledGemmNNBitIdentical: the tiled path must reproduce the
// column-sweep path bit for bit — beta fused into the first contributing
// update, k-ascending accumulation, zeros skipped — for every beta class.
func TestTiledGemmNNBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{64, 64, 64}, {100, 70, 65}, {200, 128, 96}, {65, 300, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTileDense(rng, m, k)
		b := randTileDense(rng, k, n)
		sprinkleZeros(rng, b)
		for _, beta := range []float64{0, 1, -0.5} {
			c0 := randTileDense(rng, m, n)
			c1 := c0.Clone()
			naiveGemmNN(1.25, a, b, beta, c0)
			gemmNNTiled(1.25, a, b, beta, c1)
			for i := range c0.Data {
				if c0.Data[i] != c1.Data[i] {
					t.Fatalf("dims %v beta %v: element %d tiled %v != naive %v",
						dims, beta, i, c1.Data[i], c0.Data[i])
				}
			}
		}
	}
}

// TestGemmDispatchThreshold: GemmNN must route large squarish products
// through the tiled kernel and still agree with the naive sweep exactly
// (which doubles as a dispatch-correctness check).
func TestGemmDispatchThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randTileDense(rng, 96, 96)
	b := randTileDense(rng, 96, 96)
	c0 := randTileDense(rng, 96, 96)
	c1 := c0.Clone()
	naiveGemmNN(1, a, b, 1, c0)
	GemmNN(1, a, b, 1, c1)
	for i := range c0.Data {
		if c0.Data[i] != c1.Data[i] {
			t.Fatalf("GemmNN dispatch changed element %d", i)
		}
	}
}

// TestGemvBetaFusion: the fused-beta Gemv must match the two-pass
// (scale-then-accumulate) reference exactly, including the all-zero-x
// case where the deferred scaling is the only work.
func TestGemvBetaFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randTileDense(rng, 40, 7)
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	x[0], x[3] = 0, 0 // leading zero: fusion lands on a later column
	for _, beta := range []float64{0, 1, -1.5} {
		y0 := make([]float64, 40)
		y1 := make([]float64, 40)
		for i := range y0 {
			y0[i] = rng.NormFloat64()
			y1[i] = y0[i]
		}
		// Two-pass reference.
		if beta == 0 {
			Zero(y0)
		} else if beta != 1 {
			Scal(beta, y0)
		}
		for j := 0; j < a.Cols; j++ {
			axj := 2 * x[j]
			if axj == 0 {
				continue
			}
			for i, v := range a.Col(j) {
				t := y0[i]
				y0[i] = t + axj*v
			}
		}
		Gemv(2, a, x, beta, y1)
		for i := range y0 {
			if y0[i] != y1[i] {
				t.Fatalf("beta %v: y[%d] fused %v != reference %v", beta, i, y1[i], y0[i])
			}
		}
	}
	// All contributions skipped: beta still applies.
	y := []float64{3, -4}
	Gemv(5, NewDense(2, 3), []float64{1, 2, 3}, 0.5, y)
	if y[0] != 1.5 || y[1] != -2 {
		t.Fatalf("zero-matrix Gemv left y = %v", y)
	}
}

func benchGemmPair(b *testing.B, n int, f func(alpha float64, a, bb *Dense, beta float64, c *Dense)) {
	rng := rand.New(rand.NewSource(11))
	a := randTileDense(rng, n, n)
	bb := randTileDense(rng, n, n)
	c := NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(1, a, bb, 0, c)
	}
}

func BenchmarkGemmNNNaive256(b *testing.B) { benchGemmPair(b, 256, naiveGemmNN) }
func BenchmarkGemmNNTiled256(b *testing.B) { benchGemmPair(b, 256, gemmNNTiled) }
