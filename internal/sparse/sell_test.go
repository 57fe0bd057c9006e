package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// toSELL is the SELL form of the whole matrix, rows and columns as they
// are.
func toSELL(a *CSR) *SELL {
	rows, cols := make([]int, a.Rows), make([]int, a.Cols)
	for i := range rows {
		rows[i] = i
	}
	for j := range cols {
		cols[j] = j
	}
	return a.SELLOfRows(rows, cols, a.Cols)
}

// skewedRows builds a matrix with a power-law-ish row length profile: a
// few very long rows amid short ones, ELLPACK's worst case.
func skewedRows(n int, rng *rand.Rand) *CSR {
	entries := make([]Coord, 0, 8*n)
	for i := 0; i < n; i++ {
		entries = append(entries, Coord{i, i, 4})
		deg := 2
		if i%37 == 0 {
			deg = 60
		}
		for d := 0; d < deg; d++ {
			entries = append(entries, Coord{i, rng.Intn(n), rng.NormFloat64()})
		}
	}
	return FromCoords(n, n, entries)
}

// sameBits reports whether got and want hold the same float64 bit
// patterns.
func sameBits(got, want []float64) bool {
	return slices.EqualFunc(got, want, func(g, w float64) bool { return math.Float64bits(g) == math.Float64bits(w) })
}

func TestSELLMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	for _, n := range []int{100, 97, 1, 300} { // 97, 1: last chunk partial
		a := skewedRows(n, rng)
		s := toSELL(a)
		if s.NNZ() != a.NNZ() {
			t.Fatalf("n=%d: nnz %d -> %d", n, a.NNZ(), s.NNZ())
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		a.MulVec(want, x)
		s.MulVecPrefix(got, x, n)
		if !sameBits(got, want) {
			t.Fatalf("n=%d: SpMV differs from the CSR row sums", n)
		}
	}
}

// TestSELLMulVecPrefixEveryPrefix is the contract dist builds on: for
// every prefix length of small matrices (1-33 rows, with empty rows and a
// row far wider than its chunk-mates) the prefix product equals the
// per-row CSR sum in bits, y past the prefix is left alone, and a NaN in
// any x entry the prefix rows do not reference — reachable only through
// padding or through chunk-mates outside the prefix — changes nothing.
func TestSELLMulVecPrefixEveryPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(704))
	for n := 1; n <= 33; n++ {
		cols := n + 3 // the last three columns are referenced by no row
		var entries []Coord
		for i := 0; i < n; i++ {
			deg := rng.Intn(4)
			switch {
			case i%5 == 1:
				deg = 0
			case i == n/2:
				deg = 2 * n
			}
			for d := 0; d < deg; d++ {
				entries = append(entries, Coord{i, rng.Intn(n), rng.NormFloat64()})
			}
		}
		a := FromCoords(n, cols, entries)
		s := toSELL(a)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		a.MulVec(want, x)
		for rows := 0; rows <= n; rows++ {
			poisoned := make([]float64, cols)
			for j := range poisoned {
				poisoned[j] = math.NaN()
			}
			for _, c := range a.ColIdx[:a.RowPtr[rows]] {
				poisoned[c] = x[c]
			}
			const untouched = 12345.0
			got := make([]float64, n)
			for i := range got {
				got[i] = untouched
			}
			s.MulVecPrefix(got, poisoned, rows)
			if !sameBits(got[:rows], want[:rows]) {
				t.Fatalf("n=%d rows=%d: prefix differs from the CSR row sums:\n got %v\nwant %v", n, rows, got[:rows], want[:rows])
			}
			for i := rows; i < n; i++ {
				if got[i] != untouched {
					t.Fatalf("n=%d rows=%d: y[%d] written", n, rows, i)
				}
			}
			s.MulVecPrefix(got[:rows], poisoned, rows) // a y of exactly rows, as MPK.SpMV hands one
		}
	}
}

// TestSELLMulVecPrefixRejectsShortOutput: the prefix must fit the matrix
// and y.
func TestSELLMulVecPrefixRejectsShortOutput(t *testing.T) {
	s := toSELL(testMatrix())
	for _, call := range []func(){
		func() { s.MulVecPrefix(make([]float64, 5), make([]float64, 4), 5) },
		func() { s.MulVecPrefix(make([]float64, 2), make([]float64, 4), 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("MulVecPrefix accepted an out-of-range prefix")
				}
			}()
			call()
		}()
	}
}

// TestSELLMulVecPrefixDoesNotAllocate is wired into make check with the
// la kernels' twin: the SpMV runs s times per window and must stay off
// the heap.
func TestSELLMulVecPrefixDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	a := skewedRows(203, rng)
	s := toSELL(a)
	x, y := make([]float64, a.Cols), make([]float64, a.Rows)
	if got := testing.AllocsPerRun(10, func() { s.MulVecPrefix(y, x, 203); s.MulVecPrefix(y, x, 101) }); got != 0 {
		t.Fatalf("MulVecPrefix allocates %v times", got)
	}
}

func TestSELLChunkPaddingBeatsELL(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	a := skewedRows(500, rng)
	ell, sell := ToELL(a), toSELL(a)
	// Padding to the chunk's widest row beats padding to the matrix's.
	if sell.PadRatio() >= ell.PadRatio() {
		t.Fatalf("SELL pad %v not below ELLPACK %v", sell.PadRatio(), ell.PadRatio())
	}
}

func TestSELLUniformRowsNoPadding(t *testing.T) {
	// Tridiagonal interior rows all length 3: chunks of interior rows
	// pad only at the matrix ends.
	n := 64
	entries := make([]Coord, 0, 3*n)
	for i := 0; i < n; i++ {
		entries = append(entries, Coord{i, i, 2})
		if i > 0 {
			entries = append(entries, Coord{i, i - 1, -1})
		}
		if i+1 < n {
			entries = append(entries, Coord{i, i + 1, -1})
		}
	}
	a := FromCoords(n, n, entries)
	s := toSELL(a)
	if pr := s.PadRatio(); pr > 1.02 {
		t.Fatalf("near-uniform rows should not pad: %v", pr)
	}
}

func TestSELLEmptyRows(t *testing.T) {
	a := FromCoords(10, 10, []Coord{{0, 0, 1}, {9, 9, 2}})
	s := toSELL(a)
	x := make([]float64, 10)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, 10)
	s.MulVecPrefix(y, x, 10)
	if y[0] != 1 || y[9] != 2 {
		t.Fatalf("y = %v", y)
	}
	for i := 1; i < 9; i++ {
		if y[i] != 0 {
			t.Fatalf("empty row %d produced %v", i, y[i])
		}
	}
}

// checkSELLOfRows compares the fused builder, through ToCSR, with the
// pipeline it fuses: ExtractRows then RelabelCols.
func checkSELLOfRows(t *testing.T, a *CSR, rows, newOf []int, newCols int) {
	t.Helper()
	want := a.ExtractRows(rows)
	want.RelabelCols(newOf, newCols)
	s := a.SELLOfRows(rows, newOf, newCols)
	got := s.ToCSR()
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) ||
		!slices.Equal(got.ColIdx, want.ColIdx) || !sameBits(got.Val, want.Val) {
		t.Fatalf("%d rows: SELLOfRows differs from ExtractRows+RelabelCols", len(rows))
	}
	// Chunk-local padding: every chunk is as wide as its widest row.
	for k := 0; k+1 < len(s.chunkPtr); k++ {
		w := 0
		for i := k * sellChunk; i < min(len(rows), (k+1)*sellChunk); i++ {
			w = max(w, want.RowPtr[i+1]-want.RowPtr[i])
		}
		if got := (s.chunkPtr[k+1] - s.chunkPtr[k]) / sellChunk; got != w {
			t.Fatalf("chunk %d is %d slots wide, its widest row %d", k, got, w)
		}
	}
}

// TestSELLOfRowsMatchesTheThreeStepPipeline: the fused builder returns
// exactly ExtractRows(rows) then RelabelCols(newOf) in the device format —
// including repeated rows, empty row sets and rows longer than the
// insertion-sort limit — allocates a fixed number of times, and rejects
// an incomplete column map like RelabelCols does.
func TestSELLOfRowsMatchesTheThreeStepPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, deg := range []int{3, 60} {
		const n = 300
		a := randCSR(rng, n, deg)
		newOf := rng.Perm(n)
		for _, rows := range [][]int{nil, {7}, {5, 5, 2}, rng.Perm(n)[:n/2], rng.Perm(n)} {
			checkSELLOfRows(t, a, rows, newOf, n)
		}
		rows := rng.Perm(n)
		if allocs := testing.AllocsPerRun(5, func() { a.SELLOfRows(rows, newOf, n) }); allocs > 8 {
			t.Fatalf("SELLOfRows of %d rows allocates %v times", n, allocs)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SELLOfRows accepted an incomplete column map")
		}
	}()
	testMatrix().SELLOfRows([]int{0, 1}, []int{0, -1, 1, 2}, 3)
}

// FuzzSELLOfRows derives a small matrix, a row list with repeats and a
// column permutation from the input and holds the fused builder to the
// stepwise pipeline.
func FuzzSELLOfRows(f *testing.F) {
	f.Add([]byte{}, []byte{}, int64(0))
	f.Add([]byte{0, 0, 1, 2, 3, 3, 3, 1}, []byte{3, 3, 0}, int64(1))
	wide := make([]byte, 120)
	for i := range wide {
		wide[i] = byte(i % 2 * i) // row 0 takes every other entry
	}
	f.Add(wide, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0}, int64(2))
	f.Fuzz(func(t *testing.T, cells, pick []byte, seed int64) {
		const n = 61
		entries := make([]Coord, 0, len(cells)/2)
		for k := 0; k+1 < len(cells); k += 2 {
			entries = append(entries, Coord{int(cells[k]) % n, int(cells[k+1]) % n, float64(k + 1)})
		}
		rows := make([]int, len(pick))
		for i, b := range pick {
			rows[i] = int(b) % n
		}
		checkSELLOfRows(t, FromCoords(n, n, entries), rows, rand.New(rand.NewSource(seed)).Perm(n), n)
	})
}

func BenchmarkSELLSpMV(b *testing.B) {
	rng := rand.New(rand.NewSource(702))
	a := skewedRows(1<<15, rng)
	s := toSELL(a)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	y := make([]float64, a.Rows)
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MulVecPrefix(y, x, a.Rows)
	}
}

func BenchmarkELLSpMVSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(703))
	a := skewedRows(1<<15, rng)
	e := ToELL(a)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	y := make([]float64, a.Rows)
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MulVec(y, x)
	}
}
