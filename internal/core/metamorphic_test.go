package core

import (
	"math"
	"testing"

	"cagmres/internal/gpu"
)

// The paper's CA-GMRES is GMRES around a different inner cycle, which
// implies identities cheap enough to run on every change.

// TestCAGMRESStepOneIsGMRES: with s = 1 every window is one SpMV plus a
// CGS projection — GMRES(CGS) in all but the order of the small host
// algebra — so both bases must take GMRES's restarts and iterations and
// follow its residual history to roundoff.
func TestCAGMRESStepOneIsGMRES(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 7)
	solve := func(solver func(*Problem, Options) (*Result, error), opts Options) *Result {
		t.Helper()
		p, err := NewProblem(gpu.NewContext(3, gpu.M2090()), a, b, Natural, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := solver(p, opts)
		if err != nil || !res.Converged {
			t.Fatalf("%+v: err %v, result %+v", opts, err, res)
		}
		return res
	}
	ref := solve(GMRES, Options{M: 20, Tol: 1e-10, Ortho: "CGS"})
	for _, basis := range []string{"monomial", "newton"} {
		ca := solve(CAGMRES, Options{M: 20, S: 1, Tol: 1e-10, Ortho: "CGS", Basis: basis})
		if ca.Restarts != ref.Restarts || ca.Iters != ref.Iters {
			t.Fatalf("%s: restarts/iters %d/%d, GMRES %d/%d", basis, ca.Restarts, ca.Iters, ref.Restarts, ref.Iters)
		}
		for i, h := range ref.History {
			if d := math.Abs(ca.History[i]-h) / h; d > 1e-5 {
				t.Fatalf("%s: history[%d] %v vs GMRES %v (relative %v)", basis, i, ca.History[i], h, d)
			}
		}
	}
}

// TestSeedCycleIsGMRESCycle: the Newton basis harvests its shifts from a
// first restart that literally is a GMRES(CGS) cycle, so stopping both
// solvers after one restart must leave bit-equal iterates.
func TestSeedCycleIsGMRESCycle(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 7)
	x := func(solver func(*Problem, Options) (*Result, error), opts Options) []float64 {
		t.Helper()
		p, err := NewProblem(gpu.NewContext(3, gpu.M2090()), a, b, KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		opts.M, opts.Tol, opts.MaxRestarts = 20, 1e-10, 1
		res, err := solver(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.X
	}
	g, ca := x(GMRES, Options{Ortho: "CGS"}), x(CAGMRES, Options{S: 5, Ortho: "CholQR"})
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(ca[i]) {
			t.Fatalf("x[%d]: GMRES %v, CA-GMRES seed cycle %v", i, g[i], ca[i])
		}
	}
}
