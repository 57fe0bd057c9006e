package core

import (
	"math/rand"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/matgen"
)

// TestScratchGivensReuse: the scratch's Givens solver must reset cleanly —
// a second cycle through the same scratch reproduces a fresh solver's
// results exactly.
func TestScratchGivensReuse(t *testing.T) {
	sc := newScratch(&gpu.Workspace{}, 8)
	col0 := []float64{2, 1}
	col1 := []float64{0.5, -1, 3}
	g1 := sc.givens(8, 1.5)
	r1a := g1.Append(col0)
	r1b := g1.Append(append([]float64(nil), col1...))
	y1 := g1.Solve()
	g2 := sc.givens(8, 1.5)
	if g2 != g1 {
		t.Fatal("givens not reused from scratch")
	}
	r2a := g2.Append(col0)
	r2b := g2.Append(append([]float64(nil), col1...))
	y2 := g2.Solve()
	if r1a != r2a || r1b != r2b {
		t.Fatalf("residuals differ after reset: (%v,%v) vs (%v,%v)", r2a, r2b, r1a, r1b)
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("solution differs after reset at %d: %v vs %v", i, y2[i], y1[i])
		}
	}
}

// TestOrthoLossAllocatesNothing: orthoLoss's Gram matrices are the
// scratch's, so once the first call has taken them a measurement of any
// window up to m+1 columns allocates nothing, and a narrow window after a
// wide one still starts from a zeroed sum.
func TestOrthoLossAllocatesNothing(t *testing.T) {
	const m = 8
	rng := rand.New(rand.NewSource(3))
	window := func(cols int) []*la.Dense {
		w := []*la.Dense{la.NewDense(20, cols), la.NewDense(13, cols)}
		for _, p := range w {
			for i := range p.Data {
				p.Data[i] = rng.NormFloat64()
			}
		}
		return w
	}
	wide, narrow := window(m+1), window(3)
	sc := newScratch(&gpu.Workspace{}, m)
	first := sc.orthoLoss(narrow)
	sc.orthoLoss(wide)
	if again := sc.orthoLoss(narrow); again != first {
		t.Fatalf("narrow window after a wide one: %v, first %v", again, first)
	}
	if got := testing.AllocsPerRun(10, func() { sc.orthoLoss(wide) }); got != 0 {
		t.Fatalf("orthoLoss allocates %v times", got)
	}
}

// BenchmarkSolveAllocs reports B/op and allocs/op of one whole solve on a
// prepared problem and a warm context, at the benchmark's two shapes
// (dielFilterV2real@0.004 natural, G3_circuit@0.05 k-way; 3 devices):
// what is left is per-iteration bookkeeping, and a regression in it is
// one `make bench-kernels` away from attribution.
func BenchmarkSolveAllocs(b *testing.B) {
	for _, shape := range []struct {
		matrix   string
		scale    float64
		ordering Ordering
	}{
		{"dielFilterV2real", 0.004, Natural},
		{"G3_circuit", 0.05, KWay},
	} {
		mat, err := matgen.ByName(shape.matrix, shape.scale)
		if err != nil {
			b.Fatal(err)
		}
		p, err := NewProblem(gpu.NewContext(3, gpu.M2090()), mat.A, randomRHS(mat.A.Rows, 7), shape.ordering, true)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []solveArm{
			{"CAGMRES(15,60)", CAGMRES, Options{M: 60, S: 15}},
			{"GMRES(60)", GMRES, Options{M: 60}},
		} {
			b.Run(shape.matrix+"/"+arm.name, func(b *testing.B) {
				if _, err := arm.solve(p, arm.opts); err != nil { // grows the workspace
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := arm.solve(p, arm.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
