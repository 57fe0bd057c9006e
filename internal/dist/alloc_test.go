package dist

import (
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
