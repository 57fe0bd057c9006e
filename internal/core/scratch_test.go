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
	sc := newScratch(&gpu.Workspace{}, 8, 1, 1)
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
	sc := newScratch(&gpu.Workspace{}, m, 1, 1)
	first := sc.orthoLoss(narrow)
	sc.orthoLoss(wide)
	if again := sc.orthoLoss(narrow); again != first {
		t.Fatalf("narrow window after a wide one: %v, first %v", again, first)
	}
	if got := testing.AllocsPerRun(10, func() { sc.orthoLoss(wide) }); got != 0 {
		t.Fatalf("orthoLoss allocates %v times", got)
	}
}

// TestArnoldiStepsAllocateNothing: on a warm context one Arnoldi step —
// CGS's fused projection and update or MGS's sweep, then the
// normalization — allocates nothing, and neither do the per-restart
// residual and basis-start operations: their device bodies are the
// attempt's scratch's and Vectors', built once.
func TestArnoldiStepsAllocateNothing(t *testing.T) {
	const n, m, k = 400, 8, 3
	p, err := NewProblem(gpu.NewContext(3, gpu.M2090()), laplace2D(20, 20, 0.3), randomRHS(n, 7), Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	ws := p.Ctx.TakeWorkspace()
	defer ws.Release()
	kr := newKrylov(p, ws, m, 1)
	for j := 0; j <= k+1; j++ {
		kr.V.SetColFromHost(j, randomRHS(n, int64(j)))
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"arnoldiCGS", func() { _ = arnoldiCGS(kr.V, k, kr.sc.hcol[:k+2], kr.sc) }},
		{"arnoldiMGS", func() { _ = arnoldiMGS(kr.V, k, kr.sc.hcol[:k+2], kr.sc) }},
		{"negateInto", func() { kr.sc.negateInto(kr.V, 1, 0) }},
		{"copyScaled", func() { kr.sc.copyScaled(kr.V, 1, kr.V, 0, 0.5) }},
	} {
		tc.f() // first charge creates the phase rows
		if got := testing.AllocsPerRun(20, tc.f); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, got)
		}
	}
}

// TestSolveAllocations pins what a whole solve allocates per iteration
// on a prepared 3-device problem (dielFilterV2real@0.002, natural) and a
// warm context: a device fork allocates nothing, and the bodies of the
// per-step and per-window forks, B̂ and the ortho strategies' factors are
// built once per attempt, so what is left is per-attempt construction and
// per-cycle bookkeeping (the seed cycle's Ritz values, the shift schedule,
// the ledger's phase rows) — 0.65 objects per iteration for
// CA-GMRES(15,60), with CGS or CholQR, and 0.4 for GMRES(60) when this was
// written. The CA bound is that rounded up, the GMRES one that plus 25 %:
// a fork call site or a window factor that allocates again pushes past
// them, and fails here rather than only in BenchmarkSolveAllocs.
func TestSolveAllocations(t *testing.T) {
	mat, err := matgen.ByName("dielFilterV2real", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(gpu.NewContext(3, gpu.M2090()), mat.A, randomRHS(mat.A.Rows, 7), Natural, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arm solveArm
		max float64 // allocations per iteration
	}{
		{solveArm{"CAGMRES(15,60)", CAGMRES, Options{M: 60, S: 15}}, 0.7},
		{solveArm{"CAGMRES(15,60)/CholQR", CAGMRES, Options{M: 60, S: 15, Ortho: "CholQR"}}, 0.7},
		{solveArm{"GMRES(60)", GMRES, Options{M: 60}}, 0.5},
	} {
		res, err := tc.arm.solve(p, tc.arm.opts) // grows the workspace
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := tc.arm.solve(p, tc.arm.opts); err != nil {
				t.Fatal(err)
			}
		})
		if got := allocs / float64(res.Iters); got > tc.max {
			t.Errorf("%s: %.2f allocations per iteration (%v over %d iterations), want at most %v", tc.arm.name, got, allocs, res.Iters, tc.max)
		} else {
			t.Logf("%s: %.2f allocations per iteration", tc.arm.name, got)
		}
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
			{"CAGMRES(15,60)/CholQR", CAGMRES, Options{M: 60, S: 15, Ortho: "CholQR"}},
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
