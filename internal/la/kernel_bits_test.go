package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cagmres/internal/cpufeat"
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

// withVector runs f with the vector bodies on (where the CPU has AVX2) or
// off, and gives the CPU back its own choice after.
func withVector(on bool, f func()) {
	defer func(saved bool) { hasAVX2 = saved }(hasAVX2)
	hasAVX2 = on && cpufeat.AVX2()
	f()
}

// bodies runs f once per body the CPU can run: the Go loops, then, with
// AVX2, the vector bodies.
func bodies(f func(body string)) {
	withVector(false, func() { f("go") })
	if cpufeat.AVX2() {
		withVector(true, func() { f("avx2") })
	}
}

// checkGramTile holds the tile at columns i0.. of a and j0.. of b to Dot.
func checkGramTile(a *Dense, i0 int, b *Dense, j0 int) error {
	var got [16]float64
	gramTile(a, i0, b, j0, &got)
	want := make([]float64, 16)
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			want[4*j+i] = Dot(a.Col(i0+i), b.Col(j0+j))
		}
	}
	return sameBits(got[:], want)
}

// TestGramTileMatchesDot: every row count up to 67, so the vector body
// ends on an even count and on an odd one with the last row finished in
// Go, against two operands and against one (Syrk's diagonal tile).
func TestGramTileMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	bodies(func(body string) {
		for n := 0; n <= 67; n++ {
			for _, special := range []bool{false, true} {
				a, b := awkwardDense(rng, n, 4, special), awkwardDense(rng, n, 4, special)
				if err := checkGramTile(a, 0, b, 0); err != nil {
					t.Fatalf("%s n=%d special=%v: %v", body, n, special, err)
				}
				if err := checkGramTile(a, 0, a, 0); err != nil {
					t.Fatalf("%s n=%d special=%v diagonal: %v", body, n, special, err)
				}
			}
		}
	})
}

// TestGramTileOnViews takes the tile to strided views: a row window of a
// taller matrix (Stride > Rows, every column starting 0-2 rows into its
// stride so no load is aligned), column windows at every offset, and row
// counts on both sides of a panel.
func TestGramTileOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	bodies(func(body string) {
		for _, rows := range []int{PanelRows - 1, PanelRows, PanelRows + 1} {
			for off := 0; off <= 2; off++ {
				special := off == 1
				big := awkwardDense(rng, rows+3, 7, special)
				a := big.RowView(off, off+rows)
				b := awkwardDense(rng, rows, 6, special)
				for c0 := 0; c0+4 <= 7; c0++ {
					av := big.ColView(c0, c0+4).RowView(off, off+rows)
					if err := checkGramTile(av, 0, b.ColView(c0%3, c0%3+4), 0); err != nil {
						t.Fatalf("%s rows=%d off=%d c0=%d: %v", body, rows, off, c0, err)
					}
					if err := checkGramTile(a, c0, a, 3-c0%4); err != nil {
						t.Fatalf("%s rows=%d off=%d c0=%d self: %v", body, rows, off, c0, err)
					}
				}
			}
		}
	})
}

// TestGramKernelsEveryLeftover runs GemmTN and Syrk at every column count
// from 1 to 17 on each side: whole tiles, the rows of a block column the
// tiles leave and the last columns through gemvTCols, on both bodies.
func TestGramKernelsEveryLeftover(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	bodies(func(body string) {
		for m := 1; m <= 17; m++ {
			for _, rows := range []int{0, 1, 2, 9} {
				special := (m+rows)%2 == 1
				a := awkwardDense(rng, rows, m, special)
				got, want := NewDense(m, m), NewDense(m, m)
				Syrk(a, got)
				oracleSyrk(a, want)
				if err := sameBits(got.Data, want.Data); err != nil {
					t.Fatalf("%s Syrk rows=%d cols=%d: %v", body, rows, m, err)
				}
				for n := 1; n <= 17; n++ {
					b := awkwardDense(rng, rows, n, special)
					c0 := awkwardDense(rng, m, n, special)
					beta := oracleBetas[(m+n)%len(oracleBetas)]
					got, want := c0.Clone(), c0.Clone()
					GemmTN(-0.75, a, b, beta, got)
					naiveGemmTN(-0.75, a, b, beta, want)
					if err := sameBits(got.Data, want.Data); err != nil {
						t.Fatalf("%s GemmTN rows=%d A=%d B=%d beta=%v: %v", body, rows, m, n, beta, err)
					}
				}
			}
		}
	})
}

// TestGramKernelsBodiesAgree runs the four Gram entry points with the Go
// bodies and then with the vector bodies and asks for the same bits; past
// a panel boundary the batched kernels sum partials.
func TestGramKernelsBodiesAgree(t *testing.T) {
	if !cpufeat.AVX2() {
		t.Skip("no vector body on this CPU")
	}
	rng := rand.New(rand.NewSource(51))
	names := []string{"GemmTN", "Syrk", "BatchedGram", "BatchedGemmTN"}
	for _, rows := range []int{67, PanelRows + 1} {
		for _, special := range []bool{false, true} {
			a, b := awkwardDense(rng, rows, 13, special), awkwardDense(rng, rows, 6, special)
			c0 := awkwardDense(rng, 13, 6, special)
			var outs [][]*Dense
			bodies(func(string) {
				g, s, bg, bt := c0.Clone(), NewDense(13, 13), NewDense(13, 13), NewDense(13, 6)
				GemmTN(-0.75, a, b, 0.5, g)
				Syrk(a, s)
				BatchedGram(a, bg)
				BatchedGemmTN(a, b, bt)
				outs = append(outs, []*Dense{g, s, bg, bt})
			})
			for k, name := range names {
				if err := sameBits(outs[1][k].Data, outs[0][k].Data); err != nil {
					t.Fatalf("%s rows=%d special=%v: %v", name, rows, special, err)
				}
			}
		}
	}
}

// FuzzGramTileMatchesDot holds the tile to Dot, on both bodies, at shapes
// the fuzzer picks: the row count, a row window of a taller matrix (so
// Stride > Rows), the tile's column offsets, one operand or two, and the
// seed of the values, awkward ones included.
func FuzzGramTileMatchesDot(f *testing.F) {
	f.Add(int64(0), uint16(0), uint8(0), uint8(0))
	f.Add(int64(1), uint16(67), uint8(3), uint8(0x23))
	f.Add(int64(2), uint16(PanelRows+1), uint8(8), uint8(0x41))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, pad, cols uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, p := int(rows)%(2*PanelRows), int(pad)%9
		view := func() *Dense {
			off := rng.Intn(p + 1)
			return awkwardDense(rng, n+p, 8, rng.Intn(2) == 0).RowView(off, off+n)
		}
		a, b := view(), view()
		if cols&1 != 0 {
			b = a
		}
		i0, j0 := int(cols>>1&7)%5, int(cols>>4)%5
		bodies(func(body string) {
			if err := checkGramTile(a, i0, b, j0); err != nil {
				t.Fatalf("%s rows=%d pad=%d tile (%d, %d): %v", body, n, p, i0, j0, err)
			}
		})
	})
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

// kernelShapes calls f for column counts 1-20 (every remainder of the
// four-column grouping; a short group of eight alone, one whole group
// with every leftover, two with a few), row counts below two (no vector
// dot body) and on both sides of an even count, clean and awkward inputs.
func kernelShapes(f func(tag string, rng *rand.Rand, rows, cols int, special bool)) {
	rng := rand.New(rand.NewSource(43))
	for cols := 1; cols <= 20; cols++ {
		for _, rows := range []int{0, 1, 2, 5, 66, 67} {
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
	bodies(func(body string) {
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
						t.Fatalf("%s GemvT %s alpha=%v beta=%v: %v", body, tag, alpha, beta, err)
					}
					got, want = c0.Clone(), c0.Clone()
					GemmTN(alpha, a, b, beta, got)
					naiveGemmTN(alpha, a, b, beta, want)
					if err := sameBits(got.Data, want.Data); err != nil {
						t.Fatalf("%s GemmTN %s alpha=%v beta=%v: %v", body, tag, alpha, beta, err)
					}
				}
			}
		})
	})
}

// TestGemvTOnViews takes GemvT to column windows at offsets 1-7 of a row
// window of a taller matrix (Stride > Rows, so no column starts where the
// last one ended and no load is aligned), with a short group alone, one
// and two groups of eight and a leftover, and beta = 0 over a y of NaNs,
// which must not survive.
func TestGemvTOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	bodies(func(body string) {
		for _, rows := range []int{2, 66, 67} {
			for _, special := range []bool{false, true} {
				big := awkwardDense(rng, rows+3, 7+19, special)
				x := awkwardVec(rng, rows, special)
				for c0 := 1; c0 <= 7; c0++ {
					for _, cols := range []int{3, 8, 16, 19} {
						a := big.ColView(c0, c0+cols).RowView(1, rows+1)
						for _, beta := range []float64{0, 0.5} {
							got, want := make([]float64, cols), make([]float64, cols)
							for k := range got {
								got[k], want[k] = math.NaN(), math.NaN()
							}
							GemvT(-0.75, a, x, beta, got)
							oracleGemvT(-0.75, a, x, beta, want)
							if err := sameBits(got, want); err != nil {
								t.Fatalf("%s rows=%d special=%v cols %d..%d beta=%v: %v", body, rows, special, c0, c0+cols, beta, err)
							}
						}
					}
				}
			}
		}
	})
}

// TestColViewOfRowView takes every column window — the empty ones and
// those that reach the last column included — of every row window of a
// compact and of a padded matrix: each view must hold exactly its
// elements, and GemvT on it must match GemvT on a compact copy.
func TestColViewOfRowView(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const rows, cols = 7, 10
	bodies(func(body string) {
		for _, stride := range []int{rows, rows + 2} {
			m := &Dense{Rows: rows, Cols: cols, Stride: stride, Data: make([]float64, cols*stride)}
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			for i0 := 0; i0 <= rows; i0++ {
				r := m.RowView(i0, rows)
				x := randVec(rng, rows-i0)
				for c0 := 0; c0 <= cols; c0++ {
					for c1 := c0; c1 <= cols; c1++ {
						v := r.ColView(c0, c1)
						if v.Rows != rows-i0 || v.Cols != c1-c0 {
							t.Fatalf("stride %d rows %d.. cols %d..%d: shape %dx%d", stride, i0, c0, c1, v.Rows, v.Cols)
						}
						for j := 0; j < v.Cols; j++ {
							for i := 0; i < v.Rows; i++ {
								if v.At(i, j) != m.At(i0+i, c0+j) {
									t.Fatalf("stride %d rows %d.. cols %d..%d: (%d,%d) is not m's", stride, i0, c0, c1, i, j)
								}
							}
						}
						got, want := make([]float64, v.Cols), make([]float64, v.Cols)
						GemvT(1, v, x, 0, got)
						GemvT(1, v.Clone(), x, 0, want)
						if err := sameBits(got, want); err != nil {
							t.Fatalf("%s stride %d rows %d.. cols %d..%d: %v", body, stride, i0, c0, c1, err)
						}
					}
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
// update kernels run once per Krylov column, the Gram kernels once per
// window, and must stay off the heap — the tile's [16]float64 included.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randDense(rng, 203, 11)
	x, y := randVec(rng, 203), randVec(rng, 11)
	g := NewDense(11, 11)
	tall, tall2 := randDense(rng, 2*PanelRows+5, 4), randDense(rng, 2*PanelRows+5, 3)
	gt, ct := NewDense(4, 4), NewDense(4, 3)
	for name, f := range map[string]func(){
		"GemvT":              func() { GemvT(1, a, x, 0.5, y) },
		"Gemv":               func() { Gemv(-1, a, y, 1, x) },
		"GemmTN":             func() { GemmTN(1, a, a, 0.5, g) },
		"Syrk":               func() { Syrk(a, g) },
		"BatchedGram/tall":   func() { BatchedGram(tall, gt) },
		"BatchedGemmTN/tall": func() { BatchedGemmTN(tall, tall2, ct) },
	} {
		if got := testing.AllocsPerRun(10, f); got != 0 {
			t.Fatalf("%s allocates %v times", name, got)
		}
	}
}
