package core

import (
	"math"
	"math/rand"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/sparse"
)

// laplace2D builds the 5-point Laplacian on an nx x ny grid plus a small
// nonsymmetric convection term, a standard well-conditioned GMRES test.
func laplace2D(nx, ny int, convection float64) *sparse.CSR {
	n := nx * ny
	id := func(x, y int) int { return y*nx + x }
	entries := make([]sparse.Coord, 0, 5*n)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := id(x, y)
			entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 4})
			if x > 0 {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x-1, y), Val: -1 - convection})
			}
			if x+1 < nx {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x+1, y), Val: -1 + convection})
			}
			if y > 0 {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x, y-1), Val: -1})
			}
			if y+1 < ny {
				entries = append(entries, sparse.Coord{Row: i, Col: id(x, y+1), Val: -1})
			}
		}
	}
	return sparse.FromCoords(n, n, entries)
}

// randomRHS builds a deterministic right-hand side.
func randomRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func solveCheck(t *testing.T, a *sparse.CSR, b []float64, res *Result, err error, tol float64) {
	t.Helper()
	if err != nil {
		t.Fatalf("solver error: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: relres %v after %d restarts", res.RelRes, res.Restarts)
	}
	// Verify in the original coordinates with a host-side residual.
	if rn := ResidualNorm(a, b, res.X); rn > tol {
		t.Fatalf("true residual %v > %v", rn, tol)
	}
}

func TestGMRESSolvesLaplace(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 1)
	for _, ortho := range []string{"MGS", "CGS"} {
		for _, ng := range []int{1, 3} {
			ctx := gpu.NewContext(ng, gpu.M2090())
			p, err := NewProblem(ctx, a, b, Natural, false)
			if err != nil {
				t.Fatal(err)
			}
			res, err := GMRES(p, Options{M: 30, Tol: 1e-6, Ortho: ortho})
			solveCheck(t, a, b, res, err, 1e-5)
			if res.Iters == 0 || res.Restarts == 0 {
				t.Fatalf("%s ng=%d: suspicious counters %+v", ortho, ng, res)
			}
		}
	}
}

func TestGMRESWithBalanceAndOrderings(t *testing.T) {
	a := laplace2D(16, 16, 0.2)
	// Skew the scales so balancing matters.
	for i := 0; i < a.Rows; i++ {
		s := math.Pow(10, float64(i%5)-2)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			a.Val[k] *= s
		}
	}
	b := randomRHS(256, 2)
	for _, ord := range []Ordering{Natural, RCM, KWay} {
		ctx := gpu.NewContext(2, gpu.M2090())
		p, err := NewProblem(ctx, a, b, ord, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := GMRES(p, Options{M: 40, Tol: 1e-10, MaxRestarts: 3000, Ortho: "CGS"})
		if err != nil {
			t.Fatalf("%s: %v", ord, err)
		}
		if !res.Converged {
			t.Fatalf("%s: no convergence, relres=%v", ord, res.RelRes)
		}
		// The convergence test runs on the balanced system; mapping back
		// to the original coordinates loses a factor bounded by the
		// scaling spread, so only a looser bound holds here.
		if rn := ResidualNorm(a, b, res.X); rn > 1e-4 {
			t.Fatalf("%s: true residual %v", ord, rn)
		}
	}
}

func TestGMRESResidualHistoryDecreases(t *testing.T) {
	a := laplace2D(15, 15, 0.1)
	b := randomRHS(225, 3)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, _ := NewProblem(ctx, a, b, Natural, false)
	res, err := GMRES(p, Options{M: 10, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) < 2 {
		t.Skip("converged too fast for a history check")
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]*1.0001 {
			t.Fatalf("restart residuals increased: %v", res.History)
		}
	}
}

// TestGMRESConvergesOnLastPermittedCycle: a solve whose last permitted
// cycle reaches Tol is converged, and its History holds one residual per
// counted restart, the last one included.
func TestGMRESConvergesOnLastPermittedCycle(t *testing.T) {
	a := laplace2D(18, 18, 0.2)
	b := randomRHS(324, 30)
	for _, maxRestarts := range []int{3, 4} {
		p, _ := NewProblem(gpu.NewContext(2, gpu.M2090()), a, b, Natural, false)
		res, err := GMRES(p, Options{M: 24, Tol: 1e-6, MaxRestarts: maxRestarts})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.Restarts != 3 || res.RelRes > 1e-6 {
			t.Fatalf("MaxRestarts %d: converged %v after %d restarts at relres %v, want true after 3",
				maxRestarts, res.Converged, res.Restarts, res.RelRes)
		}
		if len(res.History) != res.Restarts || res.History[len(res.History)-1] != res.RelRes {
			t.Fatalf("MaxRestarts %d: History %v for %d restarts ending at relres %v",
				maxRestarts, res.History, res.Restarts, res.RelRes)
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	a := laplace2D(5, 5, 0)
	ctx := gpu.NewContext(1, gpu.M2090())
	p, _ := NewProblem(ctx, a, make([]float64, 25), Natural, false)
	res, err := GMRES(p, Options{M: 5})
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %v %+v", err, res)
	}
	for _, x := range res.X {
		if x != 0 {
			t.Fatal("solution should be zero")
		}
	}
}

func TestGMRESHappyBreakdown(t *testing.T) {
	// b an eigenvector: Krylov space is 1-dimensional; GMRES must solve
	// exactly at the first step instead of dividing by zero.
	n := 30
	entries := make([]sparse.Coord, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 2.5})
	}
	a := sparse.FromCoords(n, n, entries) // A = 2.5 I
	b := randomRHS(n, 4)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, _ := NewProblem(ctx, a, b, Natural, false)
	res, err := GMRES(p, Options{M: 10, Tol: 1e-10})
	solveCheck(t, a, b, res, err, 1e-9)
	if res.Iters > 2 {
		t.Fatalf("diagonal system took %d iters", res.Iters)
	}
}

func TestGMRESInvalidOptions(t *testing.T) {
	a := laplace2D(5, 5, 0)
	b := randomRHS(25, 5)
	ctx := gpu.NewContext(1, gpu.M2090())
	p, _ := NewProblem(ctx, a, b, Natural, false)
	if _, err := GMRES(p, Options{M: 10, Ortho: "CholQR"}); err == nil {
		t.Fatal("GMRES must reject TSQR-only strategies")
	}
	if _, err := GMRES(p, Options{M: 100}); err == nil {
		t.Fatal("GMRES must reject m > n")
	}
}

func TestGMRESStatsPopulated(t *testing.T) {
	a := laplace2D(12, 12, 0.2)
	b := randomRHS(144, 6)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, _ := NewProblem(ctx, a, b, Natural, false)
	res, err := GMRES(p, Options{M: 20, Tol: 1e-6, Ortho: "MGS"})
	if err != nil {
		t.Fatal(err)
	}
	spmv := res.Stats.Phase(PhaseSpMV)
	orth := res.Stats.Phase(PhaseOrth)
	if spmv.Rounds == 0 || orth.Rounds == 0 {
		t.Fatal("ledger not populated")
	}
	// MGS must communicate far more often than SpMV per iteration.
	if orth.Rounds <= spmv.Rounds {
		t.Fatalf("MGS rounds %d should exceed SpMV rounds %d", orth.Rounds, spmv.Rounds)
	}
}

func TestGMRESCGSFewerRoundsThanMGS(t *testing.T) {
	a := laplace2D(12, 12, 0.2)
	b := randomRHS(144, 7)
	rounds := map[string]int{}
	for _, o := range []string{"MGS", "CGS"} {
		ctx := gpu.NewContext(2, gpu.M2090())
		p, _ := NewProblem(ctx, a, b, Natural, false)
		res, err := GMRES(p, Options{M: 20, Tol: 1e-6, Ortho: o})
		if err != nil {
			t.Fatal(err)
		}
		rounds[o] = res.Stats.Phase(PhaseOrth).Rounds
	}
	if rounds["CGS"]*2 > rounds["MGS"] {
		t.Fatalf("CGS rounds %d not clearly below MGS %d", rounds["CGS"], rounds["MGS"])
	}
}

func TestProblemUnmapRoundTrip(t *testing.T) {
	a := laplace2D(8, 8, 0.1)
	b := randomRHS(64, 8)
	ctx := gpu.NewContext(2, gpu.M2090())
	// With KWay + balance, solving and unmapping must give the original
	// system's solution.
	p, err := NewProblem(ctx, a, b, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GMRES(p, Options{M: 30, Tol: 1e-9, MaxRestarts: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rn := ResidualNorm(a, b, res.X); rn > 1e-7 {
		t.Fatalf("unmapped residual %v", rn)
	}
}

func TestResidualNorm(t *testing.T) {
	a := laplace2D(4, 4, 0)
	x := randomRHS(16, 9)
	b := make([]float64, 16)
	mulVec(a, b, x)
	if rn := ResidualNorm(a, b, x); rn > 1e-14 {
		t.Fatalf("exact solution residual %v", rn)
	}
	if rn := ResidualNorm(a, b, make([]float64, 16)); math.Abs(rn-1) > 1e-12 {
		t.Fatalf("zero solution relres %v, want 1", rn)
	}
}

// TestResidualNormScaled: a right-hand side whose plain sum of squares
// underflows (1e-300, 1e-320) or overflows (1e300) still gives X = 0 its
// true relative residual of 1, and an exact solution a small one, where
// the plain sums read 0 or NaN.
func TestResidualNormScaled(t *testing.T) {
	a := laplace2D(8, 8, 0.2)
	x := randomRHS(64, 3)
	for _, scale := range []float64{1e-300, 1e-320, 1e300} {
		b := make([]float64, 64)
		for i := range b {
			b[i] = scale
		}
		if rn := ResidualNorm(a, b, make([]float64, 64)); !(math.Abs(rn-1) <= 1e-12) {
			t.Errorf("b = %g·ones, X = 0: relres %v, want 1", scale, rn)
		}
		if scale < 1e-310 {
			continue // A x is not representable at subnormal scale
		}
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = x[i] * scale
		}
		mulVec(a, b, xs)
		if rn := ResidualNorm(a, b, xs); !(rn < 1e-14) {
			t.Errorf("b = A x at scale %g: relres %v, want below 1e-14", scale, rn)
		}
	}
}
