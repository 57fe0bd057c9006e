package core

import (
	"context"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
)

// cancelAfter returns a telemetry sink that cancels the context after n
// records of the given kind — a deterministic way to interrupt a solve
// mid-flight, independent of wall-clock timing.
func cancelAfter(cancel context.CancelFunc, kind string, n int) obs.Sink {
	seen := 0
	return obs.SinkFunc(func(r obs.Record) {
		if r.Kind == kind {
			seen++
			if seen == n {
				cancel()
			}
		}
	})
}

func TestGMRESCanceledContextReturnsBestSoFar(t *testing.T) {
	a := laplace2D(24, 24, 0.3)
	b := randomRHS(a.Rows, 3)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, err := NewProblem(ctx, a, b, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel at the first restart-boundary record: the solver must stop
	// at the next restart and report the iterate it has.
	opts := Options{M: 10, Tol: 1e-12, MaxRestarts: 200, Ctx: cctx,
		Telemetry: cancelAfter(cancel, "restart", 1)}
	res, err := GMRES(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Fatalf("expected Canceled result, got %+v", res)
	}
	if res.Converged {
		t.Fatalf("canceled solve reported Converged")
	}
	if res.Restarts < 1 {
		t.Fatalf("expected at least one restart before cancellation, got %d", res.Restarts)
	}
	if len(res.X) != a.Rows {
		t.Fatalf("best-so-far X has length %d, want %d", len(res.X), a.Rows)
	}
	// The partial iterate must still be better than the zero vector.
	if rn := ResidualNorm(a, b, res.X); rn >= 1 {
		t.Fatalf("best-so-far residual %v not better than zero iterate", rn)
	}
	if res.RelRes <= 0 {
		t.Fatalf("canceled result must carry its true residual, got %v", res.RelRes)
	}
}

func TestCAGMRESCanceledBetweenWindows(t *testing.T) {
	a := laplace2D(24, 24, 0.3)
	b := randomRHS(a.Rows, 4)
	// Cancel after a CA window: the solver finishes none past it, applies
	// the partial basis, and stops — also when the cut cycle is the last
	// one MaxRestarts permits (the seed cycle, then one window cycle), so
	// no boundary follows it.
	for _, c := range []struct{ maxRestarts, windows int }{{200, 2}, {2, 1}} {
		p, err := NewProblem(gpu.NewContext(2, gpu.M2090()), a, b, KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(context.Background())
		opts := Options{M: 20, S: 5, Tol: 1e-12, MaxRestarts: c.maxRestarts, Ortho: "CholQR",
			Ctx: cctx, Telemetry: cancelAfter(cancel, "window", c.windows)}
		res, err := CAGMRES(p, opts)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Canceled || res.Converged {
			t.Fatalf("MaxRestarts %d: canceled %v converged %v, want a canceled, unconverged result",
				c.maxRestarts, res.Canceled, res.Converged)
		}
		if len(res.History) != res.Restarts {
			t.Fatalf("MaxRestarts %d: %d History entries for %d restarts", c.maxRestarts, len(res.History), res.Restarts)
		}
		if rn := ResidualNorm(a, b, res.X); rn >= 1 {
			t.Fatalf("MaxRestarts %d: best-so-far residual %v not better than zero iterate", c.maxRestarts, rn)
		}
	}
}

func TestPreCanceledContextStopsImmediately(t *testing.T) {
	a := laplace2D(12, 12, 0.2)
	b := randomRHS(a.Rows, 5)
	cctx, cancel := context.WithCancel(context.Background())
	cancel() // already done before the solve starts
	for _, solver := range []string{"gmres", "ca"} {
		ctx := gpu.NewContext(2, gpu.M2090())
		p, err := NewProblem(ctx, a, b, Natural, false)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{M: 10, S: 5, Tol: 1e-10, Ctx: cctx}
		var res *Result
		if solver == "gmres" {
			res, err = GMRES(p, opts)
		} else {
			opts.Ortho = "CholQR"
			res, err = CAGMRES(p, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if !res.Canceled || res.Restarts != 0 || res.Iters != 0 {
			t.Fatalf("%s: pre-canceled solve ran anyway: %+v", solver, res)
		}
		if len(res.X) != a.Rows {
			t.Fatalf("%s: want zero iterate of length %d, got %d", solver, a.Rows, len(res.X))
		}
	}
}

func TestNilContextSolvesToConvergence(t *testing.T) {
	a := laplace2D(16, 16, 0.2)
	b := randomRHS(a.Rows, 6)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, err := NewProblem(ctx, a, b, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CAGMRES(p, Options{M: 30, S: 5, Tol: 1e-8, Ortho: "CholQR"})
	solveCheck(t, a, b, res, err, 1e-6)
	if res.Canceled {
		t.Fatalf("nil-context solve reported Canceled")
	}
}

func TestSetBReusesPreparation(t *testing.T) {
	a := laplace2D(16, 16, 0.3)
	b1 := randomRHS(a.Rows, 7)
	b2 := randomRHS(a.Rows, 8)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, err := NewProblem(ctx, a, b1, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{M: 30, S: 5, Tol: 1e-8, Ortho: "CholQR"}
	res1, err := CAGMRES(p, opts)
	solveCheck(t, a, b1, res1, err, 1e-6)

	// Swap the RHS on the same prepared problem: the solve must target
	// the new system in original coordinates.
	if err := p.SetB(b2); err != nil {
		t.Fatal(err)
	}
	res2, err := CAGMRES(p, opts)
	solveCheck(t, a, b2, res2, err, 1e-6)

	// Against a freshly prepared problem the results must agree exactly:
	// same ordering, same balance, same arithmetic.
	ctx2 := gpu.NewContext(2, gpu.M2090())
	pf, err := NewProblem(ctx2, a, b2, KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := CAGMRES(pf, opts)
	solveCheck(t, a, b2, ref, err, 1e-6)
	if len(ref.X) != len(res2.X) {
		t.Fatalf("length mismatch")
	}
	for i := range ref.X {
		if ref.X[i] != res2.X[i] {
			t.Fatalf("SetB solve diverged from fresh preparation at %d: %v vs %v",
				i, res2.X[i], ref.X[i])
		}
	}
	if err := p.SetB(make([]float64, 3)); err == nil {
		t.Fatalf("SetB accepted a wrong-length rhs")
	}
}
