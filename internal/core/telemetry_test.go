package core

import (
	"bytes"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
)

// collectTelemetry runs a solve with an in-memory sink and returns the
// records alongside the result.
func collectTelemetry(t *testing.T, solver func(*Problem, Options) (*Result, error),
	opts Options) ([]obs.Record, *Result) {
	t.Helper()
	a := laplace2D(16, 16, 0.2)
	b := randomRHS(256, 21)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, err := NewProblem(ctx, a, b, Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.Record
	opts.Telemetry = obs.SinkFunc(func(r obs.Record) { recs = append(recs, r) })
	res, err := solver(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return recs, res
}

func checkStream(t *testing.T, recs []obs.Record, res *Result, solver string) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatal("no telemetry emitted")
	}
	clock := 0.0
	for i, r := range recs {
		if r.Solver != solver {
			t.Fatalf("record %d: solver %q, want %q", i, r.Solver, solver)
		}
		if r.Clock < clock {
			t.Fatalf("record %d: clock went backwards (%v after %v)", i, r.Clock, clock)
		}
		clock = r.Clock
	}
	last := recs[len(recs)-1]
	if last.Kind != "done" {
		t.Fatalf("stream ends with %q, want done", last.Kind)
	}
	if last.RelRes != res.RelRes {
		t.Fatalf("done relres %v != Result.RelRes %v", last.RelRes, res.RelRes)
	}
	if last.Step != res.Iters || last.Restart != res.Restarts {
		t.Fatalf("done step/restart %d/%d != Result %d/%d",
			last.Step, last.Restart, res.Iters, res.Restarts)
	}
	if last.Clock != res.Stats.TotalTime() {
		t.Fatalf("done clock %v != ledger total %v", last.Clock, res.Stats.TotalTime())
	}
}

func countKind(recs []obs.Record, kind string) int {
	n := 0
	for _, r := range recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}

func TestGMRESTelemetry(t *testing.T) {
	recs, res := collectTelemetry(t, GMRES, Options{M: 20, Tol: 1e-8, Ortho: "CGS"})
	checkStream(t, recs, res, "gmres")
	if n := countKind(recs, "step"); n != res.Iters {
		t.Fatalf("step records %d != iterations %d", n, res.Iters)
	}
	if n := countKind(recs, "cycle"); n != res.Restarts {
		t.Fatalf("cycle records %d != restarts %d", n, res.Restarts)
	}
	// Every cycle record measured the basis orthogonality loss.
	for _, r := range recs {
		if r.Kind == "cycle" && (r.OrthoLoss <= 0 || r.OrthoLoss > 1e-8) {
			t.Fatalf("cycle ortho loss out of range: %v", r.OrthoLoss)
		}
	}
}

func TestCAGMRESTelemetry(t *testing.T) {
	recs, res := collectTelemetry(t, CAGMRES, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"})
	checkStream(t, recs, res, "cagmres")
	if countKind(recs, "window") == 0 {
		t.Fatal("no window records from CA cycles")
	}
	for _, r := range recs {
		if r.Kind == "window" && r.TSQR == "" {
			t.Fatalf("window record without TSQR name: %+v", r)
		}
	}
	if n := countKind(recs, "cycle"); n != res.Restarts {
		t.Fatalf("cycle records %d != restarts %d", n, res.Restarts)
	}
}

func TestTelemetryJSONLRoundTrip(t *testing.T) {
	a := laplace2D(14, 14, 0.1)
	b := randomRHS(196, 5)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, err := NewProblem(ctx, a, b, Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	res, err := CAGMRES(p, Options{M: 18, S: 6, Tol: 1e-8, Ortho: "CholQR", Telemetry: sink})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.LintTelemetry(buf.Bytes())
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, buf.String())
	}
	if got := recs[len(recs)-1].RelRes; got != res.RelRes {
		t.Fatalf("final relres %v != Result %v", got, res.RelRes)
	}
}

func TestTelemetryDisabledIsFree(t *testing.T) {
	// Nil sink must not change the ledger: the modeled time of a solve
	// with and without telemetry has to be identical, or the telemetry
	// layer is charging diagnostic work to the model.
	a := laplace2D(12, 12, 0.2)
	b := randomRHS(144, 9)
	run := func(sink obs.Sink) float64 {
		ctx := gpu.NewContext(2, gpu.M2090())
		p, err := NewProblem(ctx, a, b, Natural, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := GMRES(p, Options{M: 15, Tol: 1e-8, Telemetry: sink})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.TotalTime()
	}
	plain := run(nil)
	traced := run(obs.SinkFunc(func(obs.Record) {}))
	if plain != traced {
		t.Fatalf("telemetry changed modeled time: %v != %v", traced, plain)
	}
}
