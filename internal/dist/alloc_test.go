package dist

import (
	"math"
	"runtime"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
)

// TestMPKAllocations pins what one MPK window and one distributed SpMV
// allocate at s = 15 on 3 devices. A device fork (gpu.Context.RunAll)
// allocates nothing of its own, the bodies both forks of a window or an
// SpMV run are built once, with the kernel, and so is the B̂ a window
// returns: neither allocates anything.
func TestMPKAllocations(t *testing.T) {
	const ng, s = 3, 15
	a := matgen.Laplace3D(16, 16, 16, 0.2)
	l := Uniform(a.Rows, ng)
	for _, overlap := range []bool{false, true} {
		ctx := gpu.NewContext(ng, gpu.M2090())
		ctx.SetOverlap(overlap)
		k := NewMPK(Distribute(ctx, a, l, s))
		v := NewVectors(ctx, l, s+1)
		v.SetColFromHost(0, matgen.RHS(a.Rows, 1))
		shifts := []complex128{0.5, 1}
		for _, tc := range []struct {
			name string
			f    func()
		}{
			{"Generate", func() { k.Generate(v, 0, s, nil, "mpk") }},
			{"Generate/newton", func() { k.Generate(v, 0, 2, shifts, "mpk") }},
			{"SpMV", func() { k.SpMV(v, 0, v, 1, "spmv") }},
		} {
			tc.f() // first charge creates the phase rows
			if got := testing.AllocsPerRun(50, tc.f); got != 0 {
				t.Errorf("overlap=%v %s: %v allocations per call, want 0", overlap, tc.name, got)
			}
		}
	}
}

// TestVectorOpsAllocateNothing: the per-step column operations of the
// Arnoldi loops run device bodies built with the Vectors, so on a warm
// context none of them allocates.
func TestVectorOpsAllocateNothing(t *testing.T) {
	const ng, n = 3, 300
	l := Uniform(n, ng)
	for _, overlap := range []bool{false, true} {
		ctx := gpu.NewContext(ng, gpu.M2090())
		ctx.SetOverlap(overlap)
		v := NewVectors(ctx, l, 4)
		x := NewVectors(ctx, l, 1)
		v.SetColFromHost(0, matgen.RHS(n, 1))
		v.SetColFromHost(1, matgen.RHS(n, 2))
		y := []float64{0.5, -0.25}
		for _, tc := range []struct {
			name string
			f    func()
		}{
			{"DotCols", func() { v.DotCols(0, 1, "orth") }},
			{"NormCol", func() { v.NormCol(1, "orth") }},
			{"AxpyCol", func() { v.AxpyCol(0.5, 0, 2, "orth") }},
			{"ScaleCol", func() { v.ScaleCol(0.5, 2, "orth") }},
			{"UpdateWithBasis", func() { x.UpdateWithBasis(0, v, 0, y, "vec") }},
		} {
			tc.f() // first charge creates the phase rows
			if got := testing.AllocsPerRun(50, tc.f); got != 0 {
				t.Errorf("overlap=%v %s: %v allocations per call, want 0", overlap, tc.name, got)
			}
		}
	}
}

var heapSink []byte

// heapCharge is what the heap charges for one allocation of size bytes:
// size rounded up to its size class.
func heapCharge(size int) uint64 {
	if size == 0 {
		return 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	heapSink = make([]byte, size)
	runtime.ReadMemStats(&after)
	heapSink = nil
	return after.TotalAlloc - before.TotalAlloc
}

// distributeBudget is the heap Distribute may charge to build m, from its
// formula: per device the SELL slots (4 + 8 bytes each) and chunk offsets
// with a two-vector row scratch as wide as the widest row (maxRow), the
// n-long int32 map, the int32 halo and the short int tables (RowsAtDist,
// the sort's cursors, NNZPrefix); the int32 send sets; the n-long flags
// and the traffic tables; and a fixed slack for the structs themselves.
func distributeBudget(m *Matrix, maxRow int) uint64 {
	n, ng, s := m.Layout.N, len(m.Dev), m.S
	var b uint64
	for _, size := range []int{n, 8 * ng, 24 * ng, 24 * ng} { // flags, Dev, PeerTraffic, PeerTraffic1
		b += heapCharge(size)
	}
	for _, dm := range m.Dev {
		slots := int(math.Round(dm.Ext.PadRatio() * float64(dm.Ext.NNZ())))
		for _, size := range []int{
			8 * ng, 8 * ng, // rows of PeerTraffic, PeerTraffic1
			8 * ((dm.Ext.Rows+7)/8 + 1), 4 * slots, 8 * slots, 8 * maxRow, 8 * maxRow,
			4 * n, 4 * len(dm.Halo), 8 * (s + 1), 8 * (s + 1), 8 * s,
			4 * len(dm.SendIdx), 4 * len(dm.SendIdx1),
		} {
			b += heapCharge(size)
		}
	}
	const slack = 512 // the Matrix, and each device's DeviceMatrix and SELL
	return b + slack*uint64(1+ng)
}

// TestDistributeByteBudget: on every shape of the reference table,
// Distribute allocates no more than its formula — every array once, at
// its final length, and no index wider than int32 but the short tables.
func TestDistributeByteBudget(t *testing.T) {
	referenceShapes(t, func(tag string, in ordered, ng, s int) {
		maxRow := 0
		for i := range in.a.Rows {
			maxRow = max(maxRow, in.a.RowPtr[i+1]-in.a.RowPtr[i])
		}
		ctx := gpu.NewContext(ng, gpu.M2090())
		m := Distribute(ctx, in.a, in.l, s) // the context's first fork builds its thunks
		// The least of three runs: the runtime's own allocations, which
		// the counter also sees, can only add.
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Distribute(ctx, in.a, in.l, s)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if budget := distributeBudget(m, maxRow); got > budget {
			t.Errorf("%s: Distribute allocates %d bytes, its budget is %d", tag, got, budget)
		}
	})
}
