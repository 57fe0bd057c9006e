// Package sparse implements the sparse-matrix substrate of the CA-GMRES
// reproduction: CSR, ELLPACK and chunked-ELLPACK (SELL) storage, sparse
// matrix-vector products (the paper uses CSR on the CPU and ELLPACK on
// the GPUs; SELL is the device format the simulated GPUs read, ELL the
// reference it is measured against), coordinate assembly, row/column
// balancing, permutation, submatrix extraction by row sets (the building
// block of the matrix powers kernel), and MatrixMarket I/O for
// interoperability with the University of Florida collection.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format. RowPtr has
// length Rows+1; the column indices and values of row i occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]].
// Column indices within each row are kept sorted ascending.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// NewCSR allocates an empty matrix with the given shape and capacity.
func NewCSR(rows, cols, nnzCap int) *CSR {
	return &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int, rows+1),
		ColIdx: make([]int, 0, nnzCap),
		Val:    make([]float64, 0, nnzCap),
	}
}

// Coord is a coordinate-format entry used during assembly.
type Coord struct {
	Row, Col int
	Val      float64
}

// FromCoords assembles a CSR matrix from coordinate entries. Duplicate
// (row, col) pairs are summed, the FEM assembly convention, left to right
// in the order they appear in entries. Entries with value exactly zero
// after summation are retained (they still shape the sparsity graph,
// matching the behaviour of file-based matrices). Every coordinate is
// checked before any work is done; entries is only read.
//
// Assembly is two stable counting sorts, by column into a scratch and
// then by row straight into the result's ColIdx and Val, so every row
// comes out sorted with each key's entries in input order, and the cost
// is linear in the entries whatever their order.
func FromCoords(rows, cols int, entries []Coord) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: coordinate (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	// By column: the rows and values of column c's entries go to
	// rowOf and valOf[colPtr[c]:colPtr[c+1]].
	colPtr := make([]int, cols+1)
	for _, e := range entries {
		colPtr[e.Col+1]++
	}
	for j := 0; j < cols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowOf, valOf := make([]int, len(entries)), make([]float64, len(entries))
	next := slices.Clone(colPtr[:cols]) // next[c] = slot of column c's next entry
	for _, e := range entries {
		p := next[e.Col]
		next[e.Col]++
		rowOf[p], valOf[p] = e.Row, e.Val
	}
	// By row, reading the columns in order.
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1),
		ColIdx: make([]int, len(entries)), Val: make([]float64, len(entries))}
	for _, e := range entries {
		a.RowPtr[e.Row+1]++
	}
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	next = slices.Clone(a.RowPtr[:rows])
	for j := 0; j < cols; j++ {
		for q := colPtr[j]; q < colPtr[j+1]; q++ {
			p := next[rowOf[q]]
			next[rowOf[q]]++
			a.ColIdx[p], a.Val[p] = j, valOf[q]
		}
	}
	// Sum each key's entries, now adjacent, compacting the rows forward:
	// out never passes the start of the row being read.
	out, lo := 0, 0
	for i := 0; i < rows; i++ {
		hi := a.RowPtr[i+1]
		for k := lo; k < hi; {
			c, v := a.ColIdx[k], a.Val[k]
			for k++; k < hi && a.ColIdx[k] == c; k++ {
				v += a.Val[k]
			}
			a.ColIdx[out], a.Val[out] = c, v
			out++
		}
		a.RowPtr[i+1], lo = out, hi
	}
	a.ColIdx, a.Val = a.ColIdx[:out], a.Val[:out]
	return a
}

// At returns the (i, j) element (zero if not stored). Binary search over
// the sorted row keeps this O(log nnz(row)); it is a convenience for tests
// and small inspections, not a kernel.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	idx := sort.SearchInts(a.ColIdx[lo:hi], j) + lo
	if idx < hi && a.ColIdx[idx] == j {
		return a.Val[idx]
	}
	return 0
}

// Row returns the column indices and values of row i as views.
func (a *CSR) Row(i int) ([]int, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// Transpose returns A' in CSR form.
func (a *CSR) Transpose() *CSR {
	t := NewCSR(a.Cols, a.Rows, a.NNZ())
	counts := make([]int, a.Cols+1)
	for _, c := range a.ColIdx {
		counts[c+1]++
	}
	for i := 0; i < a.Cols; i++ {
		counts[i+1] += counts[i]
	}
	copy(t.RowPtr, counts)
	t.ColIdx = make([]int, a.NNZ())
	t.Val = make([]float64, a.NNZ())
	next := make([]int, a.Cols)
	copy(next, counts[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c := a.ColIdx[k]
			p := next[c]
			t.ColIdx[p] = i
			t.Val[p] = a.Val[k]
			next[c]++
		}
	}
	return t
}

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return c
}

// ExtractRows returns the submatrix A(rows, :) — the rows listed in the
// index set, in that order, with the full column dimension: the boundary
// submatrices A(delta^(d,k), :) of the matrix powers kernel as a CSR.
// (The device matrices themselves are built by SELLOfRows, which fuses
// this, RelabelCols and the format conversion; the stepwise form is its
// test oracle.)
func (a *CSR) ExtractRows(rows []int) *CSR {
	nnz := 0
	for _, i := range rows {
		nnz += a.RowPtr[i+1] - a.RowPtr[i]
	}
	s := NewCSR(len(rows), a.Cols, nnz)
	for out, i := range rows {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		s.ColIdx = append(s.ColIdx, a.ColIdx[lo:hi]...)
		s.Val = append(s.Val, a.Val[lo:hi]...)
		s.RowPtr[out+1] = s.RowPtr[out] + (hi - lo)
	}
	return s
}

// RelabelCols rewrites every stored column index through the map newOf
// (newOf[old] = new) and sets the new column dimension. Indices mapping to
// -1 are an error: the caller must supply a complete map for the stored
// pattern. Rows are re-sorted by the new indices.
func (a *CSR) RelabelCols(newOf []int, newCols int) {
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			nc := newOf[a.ColIdx[k]]
			if nc < 0 || nc >= newCols {
				panic(fmt.Sprintf("sparse: RelabelCols incomplete map for column %d", a.ColIdx[k]))
			}
			a.ColIdx[k] = nc
		}
		sortRow(a.ColIdx[lo:hi], a.Val[lo:hi])
	}
	a.Cols = newCols
}

// Permute returns P A P' for the permutation perm, where perm[new] = old:
// row/column new of the result is row/column perm[new] of A. Applying the
// orderings produced by the graph package (RCM, partition orderings) is
// exactly this symmetric permutation.
func (a *CSR) Permute(perm []int) *CSR {
	n := a.Rows
	if len(perm) != n || a.Cols != n {
		panic("sparse: Permute needs a square matrix and a full permutation")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: Permute of n=%d exceeds the int32 index range", n))
	}
	inv := make([]int32, n)
	for newIdx, old := range perm {
		inv[old] = int32(newIdx)
	}
	p := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1),
		ColIdx: make([]int, a.NNZ()), Val: make([]float64, a.NNZ())}
	for newRow, old := range perm {
		lo, hi := a.RowPtr[old], a.RowPtr[old+1]
		start := p.RowPtr[newRow]
		end := start + hi - lo
		for k := lo; k < hi; k++ {
			p.ColIdx[start+k-lo] = int(inv[a.ColIdx[k]])
		}
		copy(p.Val[start:end], a.Val[lo:hi])
		sortRow(p.ColIdx[start:end], p.Val[start:end])
		p.RowPtr[newRow+1] = end
	}
	return p
}

// sortRowInsertionMax is the row length up to which sortRow uses
// insertion sort. Relabeled and permuted rows arrive as a few ascending
// runs, which insertion sort merges in near-linear time; longer rows
// fall back to heapsort so a dense or reversed row stays O(n log n).
const sortRowInsertionMax = 32

// sortRow sorts a row's (colidx, val) pairs ascending by column index,
// in place and without allocating. Rows are kept sorted everywhere so
// that every SpMV format sums a row's products in one fixed order.
func sortRow(cols []int, vals []float64) {
	n := len(cols)
	if n <= sortRowInsertionMax {
		for i := 1; i < n; i++ {
			c, v := cols[i], vals[i]
			j := i
			for ; j > 0 && cols[j-1] > c; j-- {
				cols[j], vals[j] = cols[j-1], vals[j-1]
			}
			cols[j], vals[j] = c, v
		}
		return
	}
	if sort.IntsAreSorted(cols) {
		return
	}
	siftDown := func(root, end int) {
		for {
			child := 2*root + 1
			if child >= end {
				return
			}
			if child+1 < end && cols[child] < cols[child+1] {
				child++
			}
			if cols[root] >= cols[child] {
				return
			}
			cols[root], cols[child] = cols[child], cols[root]
			vals[root], vals[child] = vals[child], vals[root]
			root = child
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for end := n - 1; end > 0; end-- {
		cols[0], cols[end] = cols[end], cols[0]
		vals[0], vals[end] = vals[end], vals[0]
		siftDown(0, end)
	}
}

// MaxRowNNZ returns the largest row length, the ELLPACK width.
func (a *CSR) MaxRowNNZ() int {
	m := 0
	for i := 0; i < a.Rows; i++ {
		if l := a.RowPtr[i+1] - a.RowPtr[i]; l > m {
			m = l
		}
	}
	return m
}
