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
// solve still converges by shrinking the windows.
func TestStepHalvingMonomialSEqualsM(t *testing.T) {
	a := laplace2D(22, 22, 0.4)
	b := randomRHS(484, 31)
	p, _ := NewProblem(gpu.NewContext(2, gpu.M2090()), a, b, Natural, true)
	res, err := CAGMRES(p, Options{M: 30, S: 30, Tol: 1e-6, MaxRestarts: 400, Ortho: "CholQR", Basis: "monomial"})
	if err != nil {
		t.Fatalf("monomial solve failed: %v", err)
	}
	if !res.Converged {
		t.Fatalf("no convergence: relres %v", res.RelRes)
	}
	if res.StepHalvings == 0 {
		t.Fatal("no step halving at s = m")
	}
}
