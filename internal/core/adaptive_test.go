package core

import (
	"math"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
)

// hardMatrix builds a small cant-analogue system on which plain
// CA-GMRES(15, 60)/CholQR is known to hit a rank-deficient Newton window
// (the small-matrix regime where the first restart's Ritz values resolve
// most of the spectrum and the basis degenerates quickly).
func hardMatrix(t *testing.T) (*gpu.Context, *Problem) {
	t.Helper()
	m := matgen.Cant(0.05)
	b := make([]float64, m.A.Rows)
	for i := range b {
		b[i] = 1
	}
	ctx := gpu.NewContext(2, gpu.M2090())
	p, err := NewProblem(ctx, m.A, b, Natural, true)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, p
}

// TestAdaptiveSRescuesCholQR: the first Newton window of the small
// cant system is too deep for plain CholQR at s = 15, so the adaptive
// step size halves it and the solve converges — in the 2 restarts and 64 iterations
// that the retired step-size ablation recorded for this system.
func TestAdaptiveSRescuesCholQR(t *testing.T) {
	_, p := hardMatrix(t)
	res, err := CAGMRES(p, Options{M: 60, S: 15, Tol: 1e-4, MaxRestarts: 60, Ortho: "CholQR"})
	if err != nil {
		t.Fatalf("solve failed: %v", err)
	}
	if res.StepHalvings == 0 {
		t.Fatal("no step halving: the system no longer breaks a window at s = 15")
	}
	if !res.Converged || math.IsNaN(res.RelRes) {
		t.Fatalf("no convergence: relres %v", res.RelRes)
	}
	if res.Restarts != 2 || res.Iters != 64 {
		t.Fatalf("restarts %d iters %d, want 2 and 64", res.Restarts, res.Iters)
	}
	if len(res.History) != res.Restarts {
		t.Fatalf("%d History entries for %d restarts", len(res.History), res.Restarts)
	}
}

// TestStepHalvingIdleOnEasyProblem: on a well-behaved system no window
// fails, so s never shrinks.
func TestStepHalvingIdleOnEasyProblem(t *testing.T) {
	a := laplace2D(18, 18, 0.2)
	b := randomRHS(324, 30)
	p, _ := NewProblem(gpu.NewContext(2, gpu.M2090()), a, b, Natural, false)
	res, err := CAGMRES(p, Options{M: 24, S: 6, Tol: 1e-6, Ortho: "CholQR"})
	solveCheck(t, a, b, res, err, 1e-5)
	if res.StepHalvings != 0 {
		t.Fatalf("%d step halvings on an easy system", res.StepHalvings)
	}
}

// TestStepHalvingMonomialSEqualsM: a monomial basis with s = m is the
// most fragile configuration in the paper's stability discussion; the
// solve still converges by shrinking the windows. At s = 30 the first
// cycle's first window fails twice (30 → 15 → 8), at s = 15 once; the
// cycle reruns from the same boundary and every later cycle keeps s = 8,
// so a failed depth is never probed again. The reruns are part of their
// cycle: they record no boundary and use up no restart, so three
// permitted cycles suffice.
func TestStepHalvingMonomialSEqualsM(t *testing.T) {
	for _, c := range []struct{ s, maxRestarts, halvings int }{{30, 400, 2}, {15, 60, 1}, {15, 3, 1}} {
		p, _ := NewProblem(gpu.NewContext(2, gpu.M2090()), laplace2D(22, 22, 0.4), randomRHS(484, 31), Natural, true)
		res, err := CAGMRES(p, Options{M: 30, S: c.s, Tol: 1e-6, MaxRestarts: c.maxRestarts, Ortho: "CholQR", Basis: "monomial"})
		if err != nil {
			t.Fatalf("s %d MaxRestarts %d: monomial solve failed: %v", c.s, c.maxRestarts, err)
		}
		if res.StepHalvings != c.halvings {
			t.Fatalf("s %d MaxRestarts %d: %d step halvings, want %d", c.s, c.maxRestarts, res.StepHalvings, c.halvings)
		}
		if !res.Converged || res.Restarts != 3 || res.Iters != 76 {
			t.Fatalf("s %d MaxRestarts %d: converged %v after %d restarts and %d iterations, want true, 3 and 76",
				c.s, c.maxRestarts, res.Converged, res.Restarts, res.Iters)
		}
		if len(res.History) != res.Restarts {
			t.Fatalf("s %d MaxRestarts %d: %d History entries for %d restarts", c.s, c.maxRestarts, len(res.History), res.Restarts)
		}
	}
}
