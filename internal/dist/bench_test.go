package dist

import (
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/graph"
	"cagmres/internal/matgen"
	"cagmres/internal/sparse"
)

// Micro-benchmarks for the distributed kernels: SpMV vs MPK at several
// depths on a banded FEM matrix over 3 simulated devices.

func benchSetup(b *testing.B, s int) (*MPK, *Vectors) {
	b.Helper()
	a := matgen.Laplace3D(24, 24, 24, 0.2)
	ctx := gpu.NewContext(3, gpu.M2090())
	l := Uniform(a.Rows, 3)
	m := Distribute(ctx, a, l, s)
	mpk := NewMPK(m)
	v := NewVectors(ctx, l, s+1)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	v.SetColFromHost(0, x)
	return mpk, v
}

func BenchmarkDistributedSpMV(b *testing.B) {
	mpk, v := benchSetup(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpk.SpMV(v, 0, v, 1, "spmv")
	}
}

func benchmarkMPK(b *testing.B, s int) {
	mpk, v := benchSetup(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpk.Generate(v, 0, s, nil, "mpk")
	}
}

func BenchmarkMPKs2(b *testing.B)  { benchmarkMPK(b, 2) }
func BenchmarkMPKs5(b *testing.B)  { benchmarkMPK(b, 5) }
func BenchmarkMPKs10(b *testing.B) { benchmarkMPK(b, 10) }

// BenchmarkMPKWindow times one s = 15 window of the matrix powers kernel
// at the two shapes the repository benchmark solves (`make
// bench-kernels`) and reports the device format's padding: stored slots
// per nonzero, summed over the devices.
func BenchmarkMPKWindow(b *testing.B) {
	const ng, s = 3, 15
	for _, c := range []struct {
		name, matrix string
		scale        float64
		kway         bool
	}{
		{"dielFilterV2real-0.004-natural", "dielFilterV2real", 0.004, false},
		{"G3_circuit-0.05-kway", "G3_circuit", 0.05, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			mat, err := matgen.ByName(c.matrix, c.scale)
			if err != nil {
				b.Fatal(err)
			}
			a, l := mat.A, Uniform(mat.A.Rows, ng)
			if c.kway {
				perm, bounds := graph.KWay(graph.FromMatrix(a), ng, 1).Order()
				a, l = a.Permute(perm), NewLayout(a.Rows, bounds)
			}
			ctx := gpu.NewContext(ng, gpu.M2090())
			m := Distribute(ctx, a, l, s)
			var slots, nnz float64
			for _, dm := range m.Dev {
				slots += dm.Ext.PadRatio() * float64(dm.Ext.NNZ())
				nnz += float64(dm.Ext.NNZ())
			}
			mpk := NewMPK(m)
			v := NewVectors(ctx, l, s+1)
			x := make([]float64, a.Rows)
			for i := range x {
				x[i] = 1 / float64(i+1)
			}
			v.SetColFromHost(0, x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mpk.Generate(v, 0, s, nil, "mpk")
			}
			b.ReportMetric(slots/nnz, "pad")
			b.ReportMetric(slots/ng, "slots/dev")
		})
	}
}

// BenchmarkDistribute times the set-up a solve pays once: the halo search
// and the extended device matrices. The G3 case is the benchmark's
// ca-sparse-cold shape (k-way ordering, s = 15, tall 5 nnz/row matrix),
// the diel case the dense-row workloads' (natural ordering, s = 15, rows
// of about 30 entries); run with -benchmem to see that allocations do not
// grow with the rows.
func BenchmarkDistribute(b *testing.B) {
	g3, err := matgen.ByName("G3_circuit", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	diel, err := matgen.ByName("dielFilterV2real", 0.004)
	if err != nil {
		b.Fatal(err)
	}
	perm, bounds := graph.KWay(graph.FromMatrix(g3.A), 3, 1).Order()
	lap := matgen.Laplace3D(16, 16, 16, 0)
	for _, c := range []struct {
		name string
		a    *sparse.CSR
		l    *Layout
		s    int
	}{
		{"laplace3d-16-s5", lap, Uniform(lap.Rows, 3), 5},
		{"g3-kway-s15", g3.A.Permute(perm), NewLayout(g3.A.Rows, bounds), 15},
		{"g3-kway-s1", g3.A.Permute(perm), NewLayout(g3.A.Rows, bounds), 1},
		{"diel-natural-s15", diel.A, Uniform(diel.A.Rows, 3), 15},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := gpu.NewContext(3, gpu.M2090())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Distribute(ctx, c.a, c.l, c.s)
			}
		})
	}
}

func BenchmarkDotCols(b *testing.B) {
	_, v := benchSetup(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.DotCols(0, 1, "dot")
	}
}
