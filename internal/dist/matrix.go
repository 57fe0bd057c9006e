package dist

import (
	"fmt"
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/sparse"
)

// DeviceMatrix holds everything simulated GPU d needs to run the matrix
// powers kernel without further communication once its halo is filled:
// the extended local matrix and the boundary (halo) bookkeeping.
//
// Local extended index space: indices 0..nOwn-1 are the owned rows in
// global order; indices nOwn..nOwn+len(Halo)-1 are the halo rows, sorted
// by (distance, global index). Distance is the length of the shortest
// directed path in the dependency graph from an owned row, so the paper's
// boundary set delta^(d,k) is exactly the halo slice at distance s-k+1.
//
// The numbering nests across depths: the distance-1 halo is the leading
// RowsAtDist[1]-NOwn halo entries, and the owned rows of Ext reference
// only those, so a depth-s device matrix read up to its owned-row prefix
// *is* the depth-1 device matrix. MPK.SpMV relies on that to run the
// plain SpMV on the same distribution the powers kernel uses.
type DeviceMatrix struct {
	NOwn int
	// Halo lists the global indices of non-owned rows the device needs,
	// sorted by (distance asc, global index asc).
	Halo []int32
	// RowsAtDist[t] is the number of local extended rows with distance
	// <= t, for t = 0..s; RowsAtDist[0] == NOwn. The rows multiplied at
	// MPK step k (1-based) are the prefix RowsAtDist[s-k], and the halo
	// rows at distance t are Halo[RowsAtDist[t-1]-NOwn : RowsAtDist[t]-NOwn].
	RowsAtDist []int
	// Ext is the extended local matrix A(i^(d,1), :) in the device
	// format the SpMV kernel reads: rows in local extended order (only
	// rows with distance <= s-1 are stored, i.e. RowsAtDist[s-1] rows),
	// columns relabeled to the local extended index space and ascending
	// within each row. It is the only copy the device keeps.
	Ext *sparse.SELL
	// SendIdx lists the owned rows (as local indices 0..nOwn-1) whose
	// values other devices need — the compressed send buffer w^(d).
	SendIdx []int32
	// SendIdx1 is the subset of SendIdx some other device needs at
	// distance 1 — the send buffer of a plain SpMV exchange.
	SendIdx1 []int32
	// NNZPrefix[t] is nnz of the first RowsAtDist[t] rows of Ext, the
	// per-step flop bookkeeping (t = 0..s-1).
	NNZPrefix []int
	// InteriorRows / InteriorNNZ describe the interior of the owned block:
	// owned rows of Ext whose columns are all owned (relabeled index <
	// NOwn). The first MPK step over these rows needs no halo values, so
	// under overlapped scheduling it runs while the halo exchange is still
	// in flight; only the remaining (boundary) rows wait for the halo.
	InteriorRows int
	InteriorNNZ  int
}

// Matrix is a block-row distributed sparse matrix prepared for MPK(s):
// per-device extended matrices plus the host-side copy used for halo
// construction, analysis and reference operations.
type Matrix struct {
	Ctx    *gpu.Context
	Layout *Layout
	Global *sparse.CSR
	S      int
	Dev    []*DeviceMatrix

	// PeerTraffic[src][dst] is the byte volume device src ships to device
	// dst in one full-depth halo exchange when the context's topology
	// routes device-to-device traffic peer-to-peer: every halo row of dst
	// is sent by its owner, so a boundary value consumed by two devices
	// travels twice (the host staging buffer deduplicates it on the
	// host-mediated path — that asymmetry is part of the routing model).
	// PeerTraffic1 is the same for a depth-1 (plain SpMV) exchange.
	PeerTraffic  [][]int
	PeerTraffic1 [][]int
}

// WithContext returns the distribution re-targeted at another device
// context of the same device count: the per-device matrices and traffic
// tables (immutable once built) are shared, only the ledger the kernels
// charge changes. It is what lets one prepared distribution serve many
// leases.
func (m *Matrix) WithContext(ctx *gpu.Context) *Matrix {
	if ctx == m.Ctx {
		return m
	}
	if ctx.NumDevices != len(m.Dev) {
		panic(fmt.Sprintf("dist: context has %d devices, distribution %d", ctx.NumDevices, len(m.Dev)))
	}
	bound := *m
	bound.Ctx = ctx
	return &bound
}

// Distribute builds the distributed form of a square matrix for MPK depth
// s (s >= 1; s == 1 yields the plain halo exchange of a standard SpMV).
// The matrix must already be permuted into the desired ordering; the
// layout says which contiguous row block each device owns.
func Distribute(ctx *gpu.Context, a *sparse.CSR, l *Layout, s int) *Matrix {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("dist: Distribute needs square matrix, got %dx%d", a.Rows, a.Cols))
	}
	if a.Rows != l.N {
		panic(fmt.Sprintf("dist: layout n=%d != matrix n=%d", l.N, a.Rows))
	}
	if s < 1 {
		panic(fmt.Sprintf("dist: Distribute with s=%d", s))
	}
	if a.Rows > math.MaxInt32 {
		panic(fmt.Sprintf("dist: Distribute of n=%d exceeds the int32 index range", a.Rows))
	}
	ng := l.NumDevices()
	m := &Matrix{Ctx: ctx, Layout: l, Global: a, S: s, Dev: make([]*DeviceMatrix, ng)}

	// Halo construction per device can run host-side in parallel; it is
	// setup work the paper also performs on the CPU before the iteration.
	ctx.RunAll(func(d int) {
		m.Dev[d] = buildDeviceMatrix(a, l, d, s)
	})

	// Send sets and pairwise halo traffic, from one pass over the halos.
	// Device o must ship every owned row that appears in another device's
	// halo (SendIdx) or distance-1 halo (SendIdx1); on a peer-to-peer
	// topology dst's halo row g is shipped by its owner, once per consumer.
	const wanted, wanted1 = 1, 2
	want := make([]uint8, l.N)
	m.PeerTraffic = make([][]int, ng)
	m.PeerTraffic1 = make([][]int, ng)
	for o := 0; o < ng; o++ {
		m.PeerTraffic[o] = make([]int, ng)
		m.PeerTraffic1[o] = make([]int, ng)
	}
	for d, dm := range m.Dev {
		n1 := dm.RowsAtDist[1] - dm.NOwn
		for h, g := range dm.Halo {
			o := l.Owner(int(g))
			want[g] |= wanted
			m.PeerTraffic[o][d] += gpu.ScalarBytes
			if h < n1 {
				want[g] |= wanted1
				m.PeerTraffic1[o][d] += gpu.ScalarBytes
			}
		}
	}
	for o, dm := range m.Dev {
		own := want[l.OwnStart(o) : l.OwnStart(o)+dm.NOwn]
		dm.SendIdx = flagged(own, wanted)
		dm.SendIdx1 = flagged(own, wanted1)
	}
	return m
}

// flagged lists, ascending, the positions of flags that carry bit.
func flagged(flags []uint8, bit uint8) []int32 {
	n := 0
	for _, f := range flags {
		if f&bit != 0 {
			n++
		}
	}
	out := make([]int32, 0, n)
	for i, f := range flags {
		if f&bit != 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// buildDeviceMatrix computes the halo (boundary sets) of device d by a
// level-by-level breadth-first search of depth s over the directed
// dependency graph (row i depends on the columns of row i), then
// extracts and relabels the extended local matrix. Apart from filling one
// index array, the work is linear in the rows reached and their
// nonzeros, the number of allocations does not depend on the matrix, and
// each array is allocated once, at its final length.
func buildDeviceMatrix(a *sparse.CSR, l *Layout, d, s int) *DeviceMatrix {
	n := a.Rows
	own0, nOwn := l.OwnStart(d), l.OwnCount(d)
	own1 := own0 + nOwn

	// localOf is the one n-long array of the build, touched at random
	// (int32 halves its footprint). The search threads the reached
	// non-owned vertices through it into a list in discovery order, so
	// grouped by distance: localOf[v] is unreached, marked (an owned row
	// or the list's tail), or the vertex listed after v. A second walk
	// turns the list into each vertex's distance, the halo sort into its
	// local extended index.
	const unreached, marked = -1, -2
	localOf := make([]int32, n)
	for i := range localOf {
		localOf[i] = unreached
	}
	for i := own0; i < own1; i++ {
		localOf[i] = marked
	}
	head, tail, listed := int32(-1), int32(-1), 0
	lo, hi := n, 0 // index span of the list
	visit := func(v int) {
		for k := a.RowPtr[v]; k < a.RowPtr[v+1]; k++ {
			if w := a.ColIdx[k]; localOf[w] == unreached {
				if tail < 0 {
					head = int32(w)
				} else {
					localOf[tail] = int32(w)
				}
				localOf[w], tail = marked, int32(w)
				listed++
				lo, hi = min(lo, w), max(hi, w+1)
			}
		}
	}
	// rowsAtDist[t] = nOwn + #listed within distance t.
	rowsAtDist := make([]int, s+1)
	rowsAtDist[0] = nOwn
	for v := own0; v < own1; v++ {
		visit(v)
	}
	rowsAtDist[1] = nOwn + listed
	at := head
	for t := 2; t <= s; t++ {
		// The frontier is the distance t-1 halo, the list from at on. Its
		// last vertex's successor is read once the whole frontier has
		// been visited, so at ends on the first distance-t vertex.
		for q := rowsAtDist[t-2]; q < rowsAtDist[t-1]; q++ {
			visit(int(at))
			at = localOf[at]
		}
		rowsAtDist[t] = nOwn + listed
	}
	at = head
	for t := 1; t <= s; t++ {
		for q := rowsAtDist[t-1]; q < rowsAtDist[t]; q++ {
			next := localOf[at]
			localOf[at] = int32(t)
			at = next
		}
	}

	// The halo: the listed vertices sorted by (distance, index), a
	// counting sort by distance of an ascending index scan. The same scan
	// turns localOf into the local extended numbering; the owned rows
	// come first, in global order.
	halo := make([]int32, listed)
	next := make([]int, s+1) // next[t] = halo slot of the next distance-t vertex
	for t := 1; t <= s; t++ {
		next[t] = rowsAtDist[t-1] - nOwn
	}
	for v := lo; v < hi; v++ {
		if t := localOf[v]; t > 0 { // owned rows are still marked
			h := next[t]
			next[t]++
			halo[h] = int32(v)
			localOf[v] = int32(nOwn + h)
		}
	}
	for i := own0; i < own1; i++ {
		localOf[i] = int32(i - own0)
	}

	// Extended matrix: rows with distance <= s-1 (a prefix of the local
	// numbering), columns relabeled and re-sorted ascending, straight
	// into the device format.
	extHalo := halo[:rowsAtDist[s-1]-nOwn]
	ext := a.SELLOfRows(own0, own1, extHalo, localOf, nOwn+len(halo))

	nnzPrefix := make([]int, s)
	nnz := a.RowPtr[own1] - a.RowPtr[own0]
	nnzPrefix[0] = nnz
	for t := 1; t < s; t++ {
		for _, g := range extHalo[rowsAtDist[t-1]-nOwn : rowsAtDist[t]-nOwn] {
			nnz += a.RowPtr[g+1] - a.RowPtr[g]
		}
		nnzPrefix[t] = nnz
	}

	// Interior split: owned rows touching only owned columns — CSR rows
	// are sorted, so a row's first and last column decide.
	intRows, intNNZ := 0, 0
	for i := own0; i < own1; i++ {
		row := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
		if len(row) == 0 || (row[0] >= own0 && row[len(row)-1] < own1) {
			intRows++
			intNNZ += len(row)
		}
	}

	return &DeviceMatrix{
		NOwn:         nOwn,
		Halo:         halo,
		RowsAtDist:   rowsAtDist,
		Ext:          ext,
		NNZPrefix:    nnzPrefix,
		InteriorRows: intRows,
		InteriorNNZ:  intNNZ,
	}
}

// BoundaryNNZ returns nnz(A(delta^(d,1:s), :)) — the extra matrix storage
// of the matrix powers kernel on this device (global nnz counts of the
// halo rows with distance <= s-1; halo rows at distance s are never
// multiplied and need no matrix rows).
func (dm *DeviceMatrix) BoundaryNNZ() int {
	if len(dm.NNZPrefix) == 0 {
		return 0
	}
	return dm.NNZPrefix[len(dm.NNZPrefix)-1] - dm.NNZPrefix[0]
}

// LocalNNZ returns nnz(A^(d)), the owned-row nonzeros.
func (dm *DeviceMatrix) LocalNNZ() int {
	return dm.NNZPrefix[0]
}
