package dist

import (
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
)

// TestMPKAllocations pins what one MPK window and one distributed SpMV
// allocate at s = 15 on 3 devices. A device fork (gpu.Context.RunAll)
// allocates nothing of its own; what remains is the closure each fork
// runs, which captures its call's arguments. A window forks twice — pack
// the send set, then one device program that picks up the halo and runs
// all s steps — and adds B̂ (2). An SpMV forks twice as well.
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
		for _, tc := range []struct {
			name string
			max  float64
			f    func()
		}{
			{"Generate", 4, func() { k.Generate(v, 0, s, nil, "mpk") }},
			{"SpMV", 2, func() { k.SpMV(v, 0, v, 1, "spmv") }},
		} {
			tc.f() // first charge creates the phase rows
			if got := testing.AllocsPerRun(50, tc.f); got > tc.max {
				t.Errorf("overlap=%v %s: %v allocations per call, want at most %v", overlap, tc.name, got, tc.max)
			} else {
				t.Logf("overlap=%v %s: %v", overlap, tc.name, got)
			}
		}
	}
}
