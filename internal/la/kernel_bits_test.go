package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The register-blocked kernels promise the same floating-point operations
// in the same order, per output element, as the loops they replaced. The
// tests below hold them to it bit for bit: the helpers against Dot and
// Axpy themselves, the BLAS entry points against their pre-blocking loops,
// kept here as the oracle.

// sameBits reports whether got and want are the same float64s bit for
// bit. Two NaNs count as the same: which operand's payload and sign a NaN
// result inherits is the instruction's choice of operand order, not the
// order of the source's operations, so it is not part of the contract.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return fmt.Errorf("element %d: %v (%#x), want %v (%#x)", i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// awkward are the values a drifting summation order or a dropped
// zero-coefficient skip would expose.
var awkward = []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-308, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}

// awkwardVec is a random vector; with special set, about one entry in
// five is an awkward value.
func awkwardVec(rng *rand.Rand, n int, special bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if special && rng.Intn(5) == 0 {
			x[i] = awkward[rng.Intn(len(awkward))]
		}
	}
	return x
}

func awkwardDense(rng *rand.Rand, rows, cols int, special bool) *Dense {
	m := NewDense(rows, cols)
	copy(m.Data, awkwardVec(rng, rows*cols, special))
	return m
}

func TestDot4MatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 67; n++ {
		for _, special := range []bool{false, true} {
			a := awkwardDense(rng, n, 4, special)
			x := awkwardVec(rng, n, special)
			var got [4]float64
			got[0], got[1], got[2], got[3] = dot4(a.Col(0), a.Col(1), a.Col(2), a.Col(3), x)
			want := []float64{Dot(a.Col(0), x), Dot(a.Col(1), x), Dot(a.Col(2), x), Dot(a.Col(3), x)}
			if err := sameBits(got[:], want); err != nil {
				t.Fatalf("n=%d special=%v: %v", n, special, err)
			}
		}
	}
}

func TestAxpy4MatchesFourAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 67; n++ {
		for zeros := 0; zeros < 16; zeros++ { // a zero coefficient at every subset of the group
			for _, special := range []bool{false, true} {
				a := awkwardDense(rng, n, 4, special)
				var c [4]float64
				for k := range c {
					c[k] = rng.NormFloat64()
					if special && rng.Intn(4) == 0 {
						c[k] = awkward[rng.Intn(len(awkward))]
					}
					if zeros&(1<<k) != 0 {
						c[k] = math.Copysign(0, c[k])
					}
				}
				got := awkwardVec(rng, n, special)
				want := append([]float64(nil), got...)
				axpy4(c[0], c[1], c[2], c[3], a.Col(0), a.Col(1), a.Col(2), a.Col(3), got)
				for k := range c {
					Axpy(c[k], a.Col(k), want)
				}
				if err := sameBits(got, want); err != nil {
					t.Fatalf("n=%d zeros=%04b special=%v: %v", n, zeros, special, err)
				}
			}
		}
	}
}

// TestAxpy4VectorMatchesScalar holds axpy4 — on amd64 the AVX2 body and
// its Go tail — to the Go loop called directly: every length around the
// unroll (eight, then four, then one at a time) and a long one, every
// operand starting 0-3 elements into its array so no load or store is
// aligned, y sharing memory with no column.
func TestAxpy4VectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	lengths := []int{1000}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, special := range []bool{false, true} {
			var col [4][]float64
			for k := range col {
				col[k] = awkwardVec(rng, n+3, special)
			}
			y0 := awkwardVec(rng, n+3, special)
			c := [4]float64{rng.NormFloat64(), -rng.Float64(), 1e-300, rng.NormFloat64()}
			if special {
				c[rng.Intn(4)] = awkward[2+rng.Intn(len(awkward)-2)] // any but ±0: a zero takes the Axpy path
			}
			for offs := 0; offs < 1<<10; offs++ { // five offsets of two bits each
				at := func(v []float64, k int) []float64 { o := offs >> (2 * k) & 3; return v[o : o+n] }
				a := [4][]float64{at(col[0], 0), at(col[1], 1), at(col[2], 2), at(col[3], 3)}
				got, want := append([]float64(nil), y0...), append([]float64(nil), y0...)
				axpy4(c[0], c[1], c[2], c[3], a[0], a[1], a[2], a[3], at(got, 4))
				axpy4Scalar(c[0], c[1], c[2], c[3], a[0], a[1], a[2], a[3], at(want, 4))
				if err := sameBits(got, want); err != nil { // all of y: nothing outside its window is written
					t.Fatalf("n=%d special=%v offsets=%#o: %v", n, special, offs, err)
				}
			}
		}
	}
}

// --- The loops the blocked kernels replaced. ---

func oracleGemv(alpha float64, a *Dense, x []float64, beta float64, y []float64) {
	scaled := beta == 1
	for j := 0; j < a.Cols; j++ {
		axj := alpha * x[j]
		if axj == 0 {
			continue
		}
		col := a.Col(j)
		switch {
		case scaled:
			for i, v := range col {
				y[i] += axj * v
			}
		case beta == 0:
			for i, v := range col {
				y[i] = axj * v
			}
			scaled = true
		default:
			for i, v := range col {
				t := beta * y[i]
				y[i] = t + axj*v
			}
			scaled = true
		}
	}
	if !scaled {
		if beta == 0 {
			Zero(y)
		} else {
			Scal(beta, y)
		}
	}
}

func oracleGemvT(alpha float64, a *Dense, x []float64, beta float64, y []float64) {
	for j := 0; j < a.Cols; j++ {
		d := Dot(a.Col(j), x)
		if beta == 0 {
			y[j] = alpha * d
		} else {
			y[j] = alpha*d + beta*y[j]
		}
	}
}

func oracleSyrk(a, c *Dense) {
	for j := 0; j < a.Cols; j++ {
		aj := a.Col(j)
		for i := 0; i <= j; i++ {
			d := Dot(a.Col(i), aj)
			c.Set(i, j, d)
			c.Set(j, i, d)
		}
	}
}

func oracleTrsmRightUpper(v, r *Dense) {
	for j := 0; j < v.Cols; j++ {
		vj := v.Col(j)
		for i := 0; i < j; i++ {
			Axpy(-r.At(i, j), v.Col(i), vj)
		}
		Scal(1/r.At(j, j), vj)
	}
}

// oracleTrmmRightUpper computes V := V * R in place for upper-triangular
// R, right to left so earlier columns are still the original values when
// consumed.
func oracleTrmmRightUpper(v, r *Dense) {
	for j := v.Cols - 1; j >= 0; j-- {
		vj := v.Col(j)
		Scal(r.At(j, j), vj)
		for i := 0; i < j; i++ {
			Axpy(r.At(i, j), v.Col(i), vj)
		}
	}
}

// kernelShapes calls f for column counts 1-9 (every remainder of the
// four-column grouping, twice over), a few row counts, clean and awkward
// inputs.
func kernelShapes(f func(tag string, rng *rand.Rand, rows, cols int, special bool)) {
	rng := rand.New(rand.NewSource(43))
	for cols := 1; cols <= 9; cols++ {
		for _, rows := range []int{0, 1, 5, 67} {
			for _, special := range []bool{false, true} {
				f(fmt.Sprintf("rows=%d cols=%d special=%v", rows, cols, special), rng, rows, cols, special)
			}
		}
	}
}

var (
	oracleAlphas = []float64{1, -0.75, 0}
	oracleBetas  = []float64{0, 1, 0.5}
)

func TestGemvMatchesColumnSweep(t *testing.T) {
	kernelShapes(func(tag string, rng *rand.Rand, rows, cols int, special bool) {
		a := awkwardDense(rng, rows, cols, special)
		x := awkwardVec(rng, cols, special)
		for k := range x {
			if rng.Intn(3) == 0 {
				x[k] = 0 // the skip, at the head, inside and at the tail of a group
			}
		}
		y0 := awkwardVec(rng, rows, special)
		for _, alpha := range oracleAlphas {
			for _, beta := range oracleBetas {
				got, want := append([]float64(nil), y0...), append([]float64(nil), y0...)
				Gemv(alpha, a, x, beta, got)
				oracleGemv(alpha, a, x, beta, want)
				if err := sameBits(got, want); err != nil {
					t.Fatalf("%s alpha=%v beta=%v: %v", tag, alpha, beta, err)
				}
			}
		}
	})
}

func TestGemvTAndGemmTNMatchDotSweep(t *testing.T) {
	kernelShapes(func(tag string, rng *rand.Rand, rows, cols int, special bool) {
		a := awkwardDense(rng, rows, cols, special)
		b := awkwardDense(rng, rows, 3, special)
		c0 := awkwardDense(rng, cols, 3, special)
		for _, alpha := range oracleAlphas {
			for _, beta := range oracleBetas {
				got, want := c0.Clone(), c0.Clone()
				GemvT(alpha, a, b.Col(0), beta, got.Col(0))
				oracleGemvT(alpha, a, b.Col(0), beta, want.Col(0))
				if err := sameBits(got.Col(0), want.Col(0)); err != nil {
					t.Fatalf("GemvT %s alpha=%v beta=%v: %v", tag, alpha, beta, err)
				}
				got, want = c0.Clone(), c0.Clone()
				GemmTN(alpha, a, b, beta, got)
				naiveGemmTN(alpha, a, b, beta, want)
				if err := sameBits(got.Data, want.Data); err != nil {
					t.Fatalf("GemmTN %s alpha=%v beta=%v: %v", tag, alpha, beta, err)
				}
			}
		}
	})
}

func TestSyrkMatchesDotSweep(t *testing.T) {
	kernelShapes(func(tag string, rng *rand.Rand, rows, cols int, special bool) {
		a := awkwardDense(rng, rows, cols, special)
		got, want := NewDense(cols, cols), NewDense(cols, cols)
		Syrk(a, got)
		oracleSyrk(a, want)
		if err := sameBits(got.Data, want.Data); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	})
}

func TestTrsmMatchesAxpySweep(t *testing.T) {
	kernelShapes(func(tag string, rng *rand.Rand, rows, cols int, special bool) {
		v0 := awkwardDense(rng, rows, cols, special)
		r := awkwardDense(rng, cols, cols, special)
		for j := 0; j < cols; j++ {
			r.Set(j, j, 1+rng.Float64()) // Trsm rejects a zero pivot
			for i := 0; i < j; i++ {
				if rng.Intn(3) == 0 {
					r.Set(i, j, 0)
				}
			}
		}
		got, want := v0.Clone(), v0.Clone()
		TrsmRightUpper(got, r)
		oracleTrsmRightUpper(want, r)
		if err := sameBits(got.Data, want.Data); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	})
}

// TestTiledGemmMatchesTheSweeps takes GemmNN past the tiling threshold,
// where the tiles cut the column groups at their own boundaries, and holds
// it (and GemmTN at the same shapes) to the unblocked sweeps.
func TestTiledGemmMatchesTheSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, dims := range [][3]int{{64, 64, 64}, {131, 70, 65}} {
		m, k, n := dims[0], dims[1], dims[2]
		for _, special := range []bool{false, true} {
			a, b := awkwardDense(rng, m, k, special), awkwardDense(rng, k, n, special)
			sprinkleZeros(rng, b)
			at := awkwardDense(rng, k, m, special)
			c0 := awkwardDense(rng, m, n, special)
			for _, beta := range oracleBetas {
				got, want := c0.Clone(), c0.Clone()
				GemmNN(-0.75, a, b, beta, got)
				for j := 0; j < n; j++ {
					oracleGemv(-0.75, a, b.Col(j), beta, want.Col(j))
				}
				if err := sameBits(got.Data, want.Data); err != nil {
					t.Fatalf("GemmNN %v special=%v beta=%v: %v", dims, special, beta, err)
				}
				got, want = c0.Clone(), c0.Clone()
				GemmTN(-0.75, at, b, beta, got)
				naiveGemmTN(-0.75, at, b, beta, want)
				if err := sameBits(got.Data, want.Data); err != nil {
					t.Fatalf("GemmTN %v special=%v beta=%v: %v", dims, special, beta, err)
				}
			}
		}
	}
}

// TestAxpyFormKernelsAtVectorLength takes the three callers of axpy4 to a
// row count where nearly all of it is the vector body (1003 = 125 turns of
// eight, no turn of four, three elements of Go tail) and holds each to its
// pre-blocking loop.
func TestAxpyFormKernelsAtVectorLength(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const rows = 1003
	for _, special := range []bool{false, true} {
		a := awkwardDense(rng, rows, 70, special)
		x := awkwardVec(rng, 70, special)
		got := awkwardVec(rng, rows, special)
		want := append([]float64(nil), got...)
		Gemv(-0.75, a, x, 0.5, got)
		oracleGemv(-0.75, a, x, 0.5, want)
		if err := sameBits(got, want); err != nil {
			t.Fatalf("Gemv special=%v: %v", special, err)
		}

		r := awkwardDense(rng, 9, 9, special)
		for j := 0; j < 9; j++ {
			r.Set(j, j, 1+rng.Float64()) // Trsm rejects a zero pivot
		}
		v := awkwardDense(rng, rows, 9, special)
		vWant := v.Clone()
		TrsmRightUpper(v, r)
		oracleTrsmRightUpper(vWant, r)
		if err := sameBits(v.Data, vWant.Data); err != nil {
			t.Fatalf("Trsm special=%v: %v", special, err)
		}

		b := awkwardDense(rng, 70, 65, special) // past gemmTileMin in every dimension: gemmNNTiled
		c := awkwardDense(rng, rows, 65, special)
		cWant := c.Clone()
		GemmNN(-0.75, a, b, 1, c)
		for j := 0; j < b.Cols; j++ {
			oracleGemv(-0.75, a, b.Col(j), 1, cWant.Col(j))
		}
		if err := sameBits(c.Data, cWant.Data); err != nil {
			t.Fatalf("GemmNN special=%v: %v", special, err)
		}
	}
}

// TestKernelsDoNotAllocate is wired into make check: the projection and
// update kernels run once per Krylov column and must stay off the heap.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randDense(rng, 203, 11)
	x, y := randVec(rng, 203), randVec(rng, 11)
	if got := testing.AllocsPerRun(10, func() { GemvT(1, a, x, 0.5, y) }); got != 0 {
		t.Fatalf("GemvT allocates %v times", got)
	}
	if got := testing.AllocsPerRun(10, func() { Gemv(-1, a, y, 1, x) }); got != 0 {
		t.Fatalf("Gemv allocates %v times", got)
	}
}
