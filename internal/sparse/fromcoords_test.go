package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceFromCoords is the first-written assembly, kept as the oracle
// of FromCoords: a comparator sort of the whole list by (row, col), in
// place, then one merge pass that sums each key's entries in the order
// the sort left them.
func referenceFromCoords(rows, cols int, entries []Coord) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: coordinate (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	slices.SortFunc(entries, func(x, y Coord) int {
		if c := cmp.Compare(x.Row, y.Row); c != 0 {
			return c
		}
		return cmp.Compare(x.Col, y.Col)
	})
	a := NewCSR(rows, cols, len(entries))
	for i := 0; i < len(entries); {
		j := i + 1
		v := entries[i].Val
		for j < len(entries) && entries[j].Row == entries[i].Row && entries[j].Col == entries[i].Col {
			v += entries[j].Val
			j++
		}
		a.ColIdx = append(a.ColIdx, entries[i].Col)
		a.Val = append(a.Val, v)
		a.RowPtr[entries[i].Row+1]++
		i = j
	}
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// assemblyValues are the values the assembly tests draw besides normal
// ones: signed zeros and infinities sum differently in other orders,
// and a NaN must pass through a sum.
var assemblyValues = []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN()}

// checkFromCoords holds FromCoords to the oracle: the same rows and
// columns; a key of one or two entries bit-identical to the oracle's,
// which sums them in one order or the other; a key of three or more
// equal to its entries summed left to right in input order; and the
// list left as it was.
func checkFromCoords(t *testing.T, rows, cols int, entries []Coord) {
	t.Helper()
	in := slices.Clone(entries)
	got := FromCoords(rows, cols, entries)
	for i := range entries {
		if e, w := entries[i], in[i]; e.Row != w.Row || e.Col != w.Col || math.Float64bits(e.Val) != math.Float64bits(w.Val) {
			t.Fatalf("entry %d changed from %v to %v", i, w, e)
		}
	}
	want := referenceFromCoords(rows, cols, slices.Clone(entries))
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) ||
		!slices.Equal(got.ColIdx, want.ColIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("%dx%d from %d entries: pattern differs from the oracle's", rows, cols, len(entries))
	}
	type key struct{ row, col int }
	sum, count := map[key]float64{}, map[key]int{}
	for _, e := range entries {
		k := key{e.Row, e.Col}
		if count[k] == 0 {
			sum[k] = e.Val
		} else {
			sum[k] += e.Val
		}
		count[k]++
	}
	for i := 0; i < rows; i++ {
		for p := got.RowPtr[i]; p < got.RowPtr[i+1]; p++ {
			k := key{i, got.ColIdx[p]}
			w := want.Val[p]
			if count[k] >= 3 {
				w = sum[k]
			}
			if math.Float64bits(got.Val[p]) != math.Float64bits(w) {
				t.Fatalf("(%d,%d), %d entries: %v (%#x), want %v (%#x)",
					k.row, k.col, count[k], got.Val[p], math.Float64bits(got.Val[p]), w, math.Float64bits(w))
			}
		}
	}
}

// TestFromCoordsMatchesTheSortingAssembly: seeded shuffled lists whose
// rows hold 0 to 300 entries over column ranges narrow enough to repeat
// keys many times, plus one long row in descending column order with
// every column twice, values drawn partly from assemblyValues.
func TestFromCoordsMatchesTheSortingAssembly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	value := func() float64 {
		if rng.Intn(8) == 0 {
			return assemblyValues[rng.Intn(len(assemblyValues))]
		}
		return rng.NormFloat64()
	}
	for trial := 0; trial < 20; trial++ {
		const rows, cols, long = 41, 1500, 2000
		var entries []Coord
		for r := 0; r < rows-1; r++ {
			width := 1 + rng.Intn(cols)
			for k := rng.Intn(301); k > 0; k-- {
				entries = append(entries, Coord{r, rng.Intn(width), value()})
			}
		}
		for i := 0; i < long; i++ {
			entries = append(entries, Coord{rows - 1, (long - 1 - i) / 2, value()})
		}
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		checkFromCoords(t, rows, cols, entries)
	}
	checkFromCoords(t, 0, 0, nil)
	checkFromCoords(t, 3, 5, nil)
}

// TestFromCoordsOutOfRangePanicsFirst: a coordinate outside the shape
// panics with the oracle's message, whichever side it is out on and
// wherever it sits in the list, and the list is left as it was.
func TestFromCoordsOutOfRangePanicsFirst(t *testing.T) {
	for _, bad := range []Coord{{-1, 0, 1}, {3, 0, 1}, {0, -1, 1}, {0, 4, 1}} {
		for at := 0; at < 3; at++ {
			entries := []Coord{{2, 1, 5}, {0, 3, 1}, {1, 0, 2}}
			entries = slices.Insert(entries, at, bad)
			in := slices.Clone(entries)
			want := panicMessage(func() { referenceFromCoords(3, 4, slices.Clone(entries)) })
			if got := panicMessage(func() { FromCoords(3, 4, entries) }); got != want || want == "" {
				t.Fatalf("%v at %d: panicked with %q, want %q", bad, at, got, want)
			}
			if !slices.Equal(entries, in) {
				t.Fatalf("%v at %d: list reordered to %v", bad, at, entries)
			}
		}
	}
}

func panicMessage(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return ""
}

// FuzzFromCoords derives a list on a small square from the input — a
// row, a column and a value per three bytes, some values from
// assemblyValues — and holds FromCoords to the oracle.
func FuzzFromCoords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 1, 255})
	desc := make([]byte, 0, 3*3*sortRowInsertionMax)
	for i := 3 * sortRowInsertionMax; i > 0; i-- {
		desc = append(desc, 2, byte(i/2), byte(i))
	}
	f.Add(desc)
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 200
		entries := make([]Coord, 0, len(data)/3)
		for k := 0; k+2 < len(data); k += 3 {
			v := float64(int8(data[k+2])) / 3
			if b := int(data[k+2]) - (256 - len(assemblyValues)); b >= 0 {
				v = assemblyValues[b]
			}
			entries = append(entries, Coord{int(data[k]) % 7, int(data[k+1]) % n, v})
		}
		checkFromCoords(t, 7, n, entries)
	})
}
