package sparse

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

type colVal struct {
	col int
	val float64
}

// checkSortRow runs sortRow on a copy of the row and compares it with a
// library sort of the (column, value) pairs: columns ascending, and the
// same pairs as before. Rows with repeated columns may order the values
// of a repeated column either way, so the oracle orders pairs fully.
func checkSortRow(t *testing.T, cols []int, vals []float64) {
	t.Helper()
	want := make([]colVal, len(cols))
	for i := range cols {
		want[i] = colVal{cols[i], vals[i]}
	}
	byColVal := func(x, y colVal) int {
		if c := cmp.Compare(x.col, y.col); c != 0 {
			return c
		}
		return cmp.Compare(x.val, y.val)
	}
	slices.SortFunc(want, byColVal)

	gotCols, gotVals := slices.Clone(cols), slices.Clone(vals)
	sortRow(gotCols, gotVals)
	if !sort.IntsAreSorted(gotCols) {
		t.Fatalf("columns not ascending: %v", gotCols)
	}
	got := make([]colVal, len(cols))
	for i := range gotCols {
		got[i] = colVal{gotCols[i], gotVals[i]}
	}
	slices.SortFunc(got, byColVal)
	if !slices.Equal(got, want) {
		t.Fatalf("pairs changed:\n got %v\nwant %v", got, want)
	}
}

// rowFromBytes derives a row from fuzz input: each byte is a column (so
// repeats occur), the value tags the original position.
func rowFromBytes(data []byte) ([]int, []float64) {
	cols, vals := make([]int, len(data)), make([]float64, len(data))
	for i, b := range data {
		cols[i], vals[i] = int(b), float64(i)
	}
	return cols, vals
}

func TestSortRowShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, sortRowInsertionMax - 1, sortRowInsertionMax,
		sortRowInsertionMax + 1, 100, 1000, 20000} {
		asc := make([]int, n)
		for i := range asc {
			asc[i] = 3 * i
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		shuffled := slices.Clone(asc)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// A relabeled row: ascending runs (halo columns below the owned
		// block, the owned block, halo columns above) out of order.
		runs := slices.Clone(asc)
		if n >= 3 {
			runs = slices.Concat(asc[n/3:2*n/3], asc[:n/3], asc[2*n/3:])
		}
		repeated := make([]int, n)
		for i := range repeated {
			repeated[i] = rng.Intn(n/4 + 1)
		}
		for _, cols := range [][]int{asc, desc, shuffled, runs, repeated} {
			checkSortRow(t, cols, vals)
		}
	}
}

func FuzzSortRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{9, 7, 7, 3, 1, 0})
	long := make([]byte, 3*sortRowInsertionMax)
	for i := range long {
		long[i] = byte(255 - 2*i)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, vals := rowFromBytes(data)
		checkSortRow(t, cols, vals)
	})
}

// TestRowSortingDoesNotAllocate pins the point of the in-place sort: the
// row loops of Permute and RelabelCols allocate nothing per row, whatever
// the row lengths.
func TestRowSortingDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 400
	a := randCSR(rng, n, 50) // rows longer than the insertion-sort limit
	perm := rng.Perm(n)
	if got := testing.AllocsPerRun(10, func() { a.Permute(perm) }); got > 6 {
		t.Fatalf("Permute of %d rows allocates %v times", n, got)
	}
	b := a.Clone()
	if got := testing.AllocsPerRun(10, func() { b.RelabelCols(perm, n) }); got != 0 {
		t.Fatalf("RelabelCols of %d rows allocates %v times", n, got)
	}
}
