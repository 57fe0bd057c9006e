package sparse

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// toSELL is the SELL form of the whole matrix, rows and columns as they
// are, held to the format's invariants.
func toSELL(t testing.TB, a *CSR) *SELL {
	t.Helper()
	cols := make([]int32, a.Cols)
	for j := range cols {
		cols[j] = int32(j)
	}
	s := a.SELLOfRows(0, a.Rows, nil, cols, a.Cols)
	checkSELLInvariants(t, s)
	return s
}

// checkSELLInvariants asserts what SELL's doc comment promises and the
// amd64 kernel, which checks no bounds, relies on.
func checkSELLInvariants(t testing.TB, s *SELL) {
	t.Helper()
	nchunks := (s.Rows + sellChunk - 1) / sellChunk
	if len(s.chunkPtr) != nchunks+1 || s.chunkPtr[0] != 0 {
		t.Fatalf("%d rows: chunkPtr %v", s.Rows, s.chunkPtr)
	}
	for k := 0; k < nchunks; k++ {
		if w := s.chunkPtr[k+1] - s.chunkPtr[k]; w < 0 || w%sellChunk != 0 {
			t.Fatalf("chunk %d holds %d entries: not whole slots of %d lanes", k, w, sellChunk)
		}
	}
	if len(s.colIdx) != s.chunkPtr[nchunks] || len(s.val) != s.chunkPtr[nchunks] {
		t.Fatalf("len(colIdx)=%d len(val)=%d, chunkPtr ends at %d", len(s.colIdx), len(s.val), s.chunkPtr[nchunks])
	}
	for at, c := range s.colIdx {
		switch {
		case c < -1 || int(c) >= s.Cols:
			t.Fatalf("colIdx[%d] = %d outside -1..%d", at, c, s.Cols-1)
		case c == -1 && math.Float64bits(s.val[at]) != 0:
			t.Fatalf("padding value val[%d] = %v, want +0", at, s.val[at])
		}
	}
	// Full height: the last chunk's lanes past the last row are padding.
	if nchunks > 0 {
		for at, c := range s.colIdx[s.chunkPtr[nchunks-1]:] {
			if row := (nchunks-1)*sellChunk + at%sellChunk; row >= s.Rows && c != -1 {
				t.Fatalf("lane %d of the last chunk is past row %d and holds an entry", at%sellChunk, s.Rows-1)
			}
		}
	}
}

// TestSELLInvariants: every shape the builder is used for — whole
// matrices with a partial or no last chunk, no rows at all, row subsets
// with repeats under a column permutation. toSELL and checkSELLOfRows
// carry the same check into every other test and into FuzzSELLOfRows.
func TestSELLInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for _, n := range []int{1, 7, 8, 9, 97, 300} {
		toSELL(t, skewedRows(n, rng))
	}
	toSELL(t, FromCoords(10, 10, nil))
	toSELL(t, FromCoords(0, 0, nil))
	a := randCSR(rng, 120, 9)
	newOf := rng.Perm(120)
	for _, rows := range [][]int{nil, {7}, {5, 5, 2}, rng.Perm(120)[:61]} {
		checkSELLInvariants(t, a.SELLOfRows(0, 0, int32s(rows), int32s(newOf), 120))
		checkSELLInvariants(t, a.SELLOfRows(30, 53, int32s(rows), int32s(newOf), 120))
	}
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

// untouched fills the part of y a kernel must leave alone.
const untouched = 12345.0

// sameBits reports whether got and want hold the same float64 bit
// patterns.
func sameBits(got, want []float64) bool {
	return slices.EqualFunc(got, want, func(g, w float64) bool { return math.Float64bits(g) == math.Float64bits(w) })
}

func TestSELLMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	for _, n := range []int{100, 97, 1, 300} { // 97, 1: last chunk partial
		a := skewedRows(n, rng)
		s := toSELL(t, a)
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
		s := toSELL(t, a)
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

// The x values a multiplied padding slot, a fused multiply-add or a
// drifting summation order would expose: nonFinite where a row must not
// look, tiny where it does, awkward for both.
var (
	tiny      = []float64{math.Copysign(0, -1), 5e-324, -2.5e-308}
	nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	awkward   = slices.Concat(tiny, nonFinite)
)

// checkPrefixMatchesScalar runs one prefix through MulVecPrefix — the
// vector body where there is one — and through the Go loop called
// directly, and requires the same bits (two NaNs count as the same, as in
// la's kernel_bits_test.go: which payload a NaN result inherits is the
// instruction's operand order, not the order of the operations) and a y
// left alone past the prefix.
func checkPrefixMatchesScalar(t *testing.T, s *SELL, x []float64, rows int) {
	t.Helper()
	got, want := make([]float64, s.Rows+3), make([]float64, s.Rows+3)
	for i := range got {
		got[i], want[i] = untouched, untouched
	}
	s.MulVecPrefix(got, x, rows)
	s.mulVecScalar(want, x, 0, rows)
	for i := range got {
		if g, w := got[i], want[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%d rows, prefix %d: y[%d] = %v (%#x), the Go loop has %v (%#x)",
				s.Rows, rows, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestSELLMulVecPrefixMatchesScalar holds the vector body to the Go loop
// bit for bit: row lengths 0-40 with empty rows and one 300-wide row, row
// counts on both sides of a chunk boundary, every prefix length; x with
// -0 and subnormal entries where the prefix reads it and NaN or ±Inf
// everywhere it does not (a padding lane or a chunk-mate past the prefix
// that was loaded or multiplied would show), then with awkward values
// everywhere.
func TestSELLMulVecPrefixMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(706))
	const cols = 320
	for _, n := range []int{1, 7, 8, 9, 16, 43} {
		var entries []Coord
		for i := 0; i < n; i++ {
			deg := rng.Intn(41)
			switch {
			case i%6 == 2:
				deg = 0
			case i == n/2:
				deg = 300
			}
			for _, c := range rng.Perm(cols - 3)[:deg] { // the last three columns are referenced by no row
				entries = append(entries, Coord{i, c, rng.NormFloat64()})
			}
		}
		a := FromCoords(n, cols, entries)
		s := toSELL(t, a)
		for rows := 0; rows <= n; rows++ {
			x := make([]float64, cols)
			for j := range x {
				x[j] = nonFinite[rng.Intn(len(nonFinite))]
			}
			for _, c := range a.ColIdx[:a.RowPtr[rows]] {
				x[c] = rng.NormFloat64()
				if rng.Intn(4) == 0 {
					x[c] = tiny[rng.Intn(len(tiny))]
				}
			}
			checkPrefixMatchesScalar(t, s, x, rows)
			for j := range x {
				if rng.Intn(3) == 0 {
					x[j] = awkward[rng.Intn(len(awkward))]
				}
			}
			checkPrefixMatchesScalar(t, s, x, rows)
		}
	}
}

// TestSELLMulVecPrefixRejectsShortOutput: the prefix must fit the matrix
// and y, and x must cover every column — all checked before y is touched
// (the amd64 kernel checks no bounds).
func TestSELLMulVecPrefixRejectsShortOutput(t *testing.T) {
	s := toSELL(t, testMatrix())
	for _, c := range []struct{ ylen, xlen, rows int }{{5, 4, 5}, {2, 4, 3}, {4, 3, 4}, {4, 0, 1}} {
		y := make([]float64, c.ylen)
		for i := range y {
			y[i] = untouched
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "sparse: SELL MulVecPrefix") {
					t.Fatalf("len(y)=%d len(x)=%d rows=%d: recovered %q", c.ylen, c.xlen, c.rows, msg)
				}
			}()
			s.MulVecPrefix(y, make([]float64, c.xlen), c.rows)
		}()
		for i, v := range y {
			if v != untouched {
				t.Fatalf("len(y)=%d len(x)=%d rows=%d: y[%d] written before the panic", c.ylen, c.xlen, c.rows, i)
			}
		}
	}
}

// TestSELLMulVecPrefixDoesNotAllocate is wired into make check with the
// la kernels' twin: the SpMV runs s times per window and must stay off
// the heap.
func TestSELLMulVecPrefixDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	a := skewedRows(203, rng)
	s := toSELL(t, a)
	x, y := make([]float64, a.Cols), make([]float64, a.Rows)
	if got := testing.AllocsPerRun(10, func() { s.MulVecPrefix(y, x, 203); s.MulVecPrefix(y, x, 101) }); got != 0 {
		t.Fatalf("MulVecPrefix allocates %v times", got)
	}
}

func TestSELLChunkPaddingBeatsELL(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	a := skewedRows(500, rng)
	ell, sell := ToELL(a), toSELL(t, a)
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
	s := toSELL(t, a)
	if pr := s.PadRatio(); pr > 1.02 {
		t.Fatalf("near-uniform rows should not pad: %v", pr)
	}
}

func TestSELLEmptyRows(t *testing.T) {
	a := FromCoords(10, 10, []Coord{{0, 0, 1}, {9, 9, 2}})
	s := toSELL(t, a)
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

// int32s is p in the element type of SELLOfRows' column map.
func int32s(p []int) []int32 {
	out := make([]int32, len(p))
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}

// checkSELLOfRows compares the fused builder of the rows lo..hi-1 then
// more, through ToCSR, with the pipeline it fuses: ExtractRows then
// RelabelCols.
func checkSELLOfRows(t *testing.T, a *CSR, lo, hi int, more, newOf []int, newCols int) {
	t.Helper()
	var rows []int
	for i := lo; i < hi; i++ {
		rows = append(rows, i)
	}
	rows = append(rows, more...)
	want := a.ExtractRows(rows)
	want.RelabelCols(newOf, newCols)
	s := a.SELLOfRows(lo, hi, int32s(more), int32s(newOf), newCols)
	checkSELLInvariants(t, s)
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
// including repeated rows, empty row sets, a range with and without a
// list after it and rows longer than the insertion-sort limit —
// allocates a fixed number of times, and rejects
// an incomplete column map like RelabelCols does.
func TestSELLOfRowsMatchesTheThreeStepPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, deg := range []int{3, 60} {
		const n = 300
		a := randCSR(rng, n, deg)
		newOf := rng.Perm(n)
		for _, rows := range [][]int{nil, {7}, {5, 5, 2}, rng.Perm(n)[:n/2], rng.Perm(n)} {
			for _, r := range [][2]int{{0, 0}, {0, n}, {41, 180}} {
				checkSELLOfRows(t, a, r[0], r[1], rows, newOf, n)
			}
		}
		rows, newOf32 := int32s(rng.Perm(n)), int32s(newOf)
		if allocs := testing.AllocsPerRun(5, func() { a.SELLOfRows(17, 90, rows, newOf32, n) }); allocs > 8 {
			t.Fatalf("SELLOfRows of %d rows allocates %v times", n, allocs)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SELLOfRows accepted an incomplete column map")
		}
	}()
	testMatrix().SELLOfRows(0, 2, nil, []int32{0, -1, 1, 2}, 3)
}

// FuzzSELLOfRows derives a small matrix, a row range, a row list with
// repeats and a column permutation from the input and holds the fused
// builder to the stepwise pipeline.
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
		rng := rand.New(rand.NewSource(seed))
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		checkSELLOfRows(t, FromCoords(n, n, entries), lo, hi, rows, rng.Perm(n), n)
	})
}

// FuzzMulVecPrefixMatchesScalar derives a small matrix, an x with
// awkward values and a prefix length from the input and holds the vector
// body to the Go loop.
func FuzzMulVecPrefixMatchesScalar(f *testing.F) {
	f.Add([]byte{}, int64(0), uint8(0))
	f.Add([]byte{0, 0, 1, 2, 3, 3, 3, 1, 60, 5}, int64(1), uint8(61))
	wide := make([]byte, 120)
	for i := range wide {
		wide[i] = byte(i % 2 * i) // row 0 takes every other entry
	}
	f.Add(wide, int64(2), uint8(9))
	f.Fuzz(func(t *testing.T, cells []byte, seed int64, prefix uint8) {
		const n = 61
		entries := make([]Coord, 0, len(cells)/2)
		for k := 0; k+1 < len(cells); k += 2 {
			entries = append(entries, Coord{int(cells[k]) % n, int(cells[k+1]) % n, float64(k+1) / 7})
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64()
			if rng.Intn(4) == 0 {
				x[j] = awkward[rng.Intn(len(awkward))]
			}
		}
		checkPrefixMatchesScalar(t, toSELL(t, FromCoords(n, n, entries)), x, int(prefix)%(n+1))
	})
}

func BenchmarkSELLSpMV(b *testing.B) {
	rng := rand.New(rand.NewSource(702))
	a := skewedRows(1<<15, rng)
	s := toSELL(b, a)
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
