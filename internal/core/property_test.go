package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/sparse"
)

// denseSolve solves a small system exactly with Householder QR, the
// cross-validation oracle for the iterative solvers.
func denseSolve(a *sparse.CSR, b []float64) []float64 {
	n := a.Rows
	dense := la.NewDense(n, n)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			dense.Set(i, j, vals[k])
		}
	}
	return la.QRLeastSquares(dense, b)
}

// TestSolversMatchDenseOracle cross-validates both solvers against exact
// dense solves on random small well-conditioned systems with random
// configurations (device counts, orderings, step sizes, strategies).
func TestSolversMatchDenseOracle(t *testing.T) {
	orthos := []string{"CGS", "CholQR", "SVQR", "CAQR", "2xCGS", "MixedCholQR2"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		// Diagonally dominant random system: GMRES-friendly.
		entries := make([]sparse.Coord, 0, 5*n)
		for i := 0; i < n; i++ {
			var sum float64
			for d := 0; d < 3; d++ {
				j := rng.Intn(n)
				if j == i {
					continue
				}
				v := rng.NormFloat64()
				entries = append(entries, sparse.Coord{Row: i, Col: j, Val: v})
				sum += math.Abs(v)
			}
			entries = append(entries, sparse.Coord{Row: i, Col: i, Val: sum + 1 + rng.Float64()})
		}
		a := sparse.FromCoords(n, n, entries)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := denseSolve(a, b)

		ng := 1 + rng.Intn(3)
		ordering := []Ordering{Natural, RCM, KWay}[rng.Intn(3)]
		balance := rng.Intn(2) == 0
		m := 8 + rng.Intn(10)
		if m > n {
			m = n
		}
		ctx := gpu.NewContext(ng, gpu.M2090())
		p, err := NewProblem(ctx, a, b, ordering, balance)
		if err != nil {
			t.Logf("seed %d: NewProblem: %v", seed, err)
			return false
		}
		var res *Result
		if rng.Intn(2) == 0 {
			res, err = GMRES(p, Options{M: m, Tol: 1e-10, MaxRestarts: 3000,
				Ortho: []string{"MGS", "CGS"}[rng.Intn(2)]})
		} else {
			s := 1 + rng.Intn(m)
			res, err = CAGMRES(p, Options{M: m, S: s, Tol: 1e-10, MaxRestarts: 3000,
				Ortho: orthos[rng.Intn(len(orthos))]})
		}
		if err != nil {
			t.Logf("seed %d: solver: %v", seed, err)
			return false
		}
		if !res.Converged {
			t.Logf("seed %d: no convergence (relres %v)", seed, res.RelRes)
			return false
		}
		for i := range want {
			if math.Abs(res.X[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
				t.Logf("seed %d: x[%d] = %v, oracle %v", seed, i, res.X[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCAGMRESDeterministicAcrossRuns ensures the solver is bitwise
// reproducible for a fixed configuration (device parallelism must not
// introduce nondeterminism: reductions are summed on the host in device
// order).
func TestCAGMRESDeterministicAcrossRuns(t *testing.T) {
	a := laplace2D(15, 15, 0.3)
	b := randomRHS(225, 80)
	run := func() []float64 {
		ctx := gpu.NewContext(3, gpu.M2090())
		p, _ := NewProblem(ctx, a, b, KWay, true)
		res, err := CAGMRES(p, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"})
		if err != nil {
			t.Fatal(err)
		}
		return res.X
	}
	x1, x2 := run(), run()
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("nondeterministic solution at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

// TestSolutionIndependentOfDeviceCount verifies the distributed execution
// is transparent: the same problem solved on 1, 2 and 3 devices yields
// the same solution to tight tolerance.
func TestSolutionIndependentOfDeviceCount(t *testing.T) {
	a := laplace2D(16, 16, 0.25)
	b := randomRHS(256, 81)
	var ref []float64
	for _, ng := range []int{1, 2, 3} {
		ctx := gpu.NewContext(ng, gpu.M2090())
		p, _ := NewProblem(ctx, a, b, Natural, false)
		res, err := CAGMRES(p, Options{M: 24, S: 6, Tol: 1e-10, Ortho: "CAQR", MaxRestarts: 2000})
		if err != nil {
			t.Fatalf("ng=%d: %v", ng, err)
		}
		if ref == nil {
			ref = res.X
			continue
		}
		for i := range ref {
			if math.Abs(res.X[i]-ref[i]) > 1e-7*(1+math.Abs(ref[i])) {
				t.Fatalf("ng=%d: solution differs at %d", ng, i)
			}
		}
	}
}
