package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"cagmres/internal/gpu"
)

// solveArm is one solver configuration of a table-driven test.
type solveArm struct {
	name  string
	solve func(*Problem, Options) (*Result, error)
	opts  Options
}

// solverArms are the solve paths the workspace tests sweep: every kind of
// buffer an attempt builds (Arnoldi and window bases, Newton shifts,
// narrowed storage, the double-buffered overlapped exchange).
var solverArms = []solveArm{
	{"gmres", GMRES, Options{M: 20, Tol: 1e-8}},
	{"ca-monomial", CAGMRES, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Basis: "monomial"}},
	{"ca-newton", CAGMRES, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"}},
	{"ca-mixed", CAGMRES, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Precision: PrecisionMixed}},
	{"ca-overlap", CAGMRES, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Overlap: true}},
}

// sameSolve fails unless got repeats want bit for bit: solution,
// iteration count, residual history and the rendered ledger.
func sameSolve(t *testing.T, what string, want, got *Result) {
	t.Helper()
	if got.Iters != want.Iters || got.Restarts != want.Restarts || got.RelRes != want.RelRes {
		t.Fatalf("%s: iters/restarts/relres %d/%d/%v, want %d/%d/%v", what,
			got.Iters, got.Restarts, got.RelRes, want.Iters, want.Restarts, want.RelRes)
	}
	if !slices.Equal(got.X, want.X) || !slices.Equal(got.History, want.History) {
		t.Fatalf("%s: solution or residual history differs", what)
	}
	if g, w := got.Stats.String(), want.Stats.String(); g != w {
		t.Fatalf("%s: ledger differs:\n%s\nwant:\n%s", what, g, w)
	}
}

// poisonWorkspace leaves every lane of the context's workspace holding
// exactly floats NaNs: the first holder's release grows the lanes, the
// second holder is served from them.
func poisonWorkspace(t *testing.T, ctx *gpu.Context, floats int) {
	t.Helper()
	for round := 0; round < 2; round++ {
		ws := ctx.TakeWorkspace()
		poison := func(lane int) {
			buf := ws.Floats(lane, floats)
			for i := range buf {
				buf[i] = math.NaN()
			}
		}
		poison(gpu.HostDevice)
		for d := 0; d < ctx.NumDevices; d++ {
			poison(d)
		}
		ws.Release()
	}
	if got, want := ctx.WorkspaceBytes(), (ctx.NumDevices+1)*floats*gpu.ScalarBytes; got != want {
		t.Fatalf("poisoned workspace holds %d bytes, want %d", got, want)
	}
}

// TestPoisonedWorkspaceSolvesBitIdentically: a solve whose every buffer
// comes out of memory the previous holder filled with NaN equals the same
// solve on a fresh context bit for bit — nothing an attempt reads was
// left by another.
func TestPoisonedWorkspaceSolvesBitIdentically(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 7)
	const lane = 1 << 15 // floats: more than any lane of these attempts needs
	for _, arm := range solverArms {
		run := func(poison bool) (*Result, *gpu.Context) {
			ctx := gpu.NewContext(3, gpu.M2090())
			if poison {
				poisonWorkspace(t, ctx, lane)
			}
			p, err := NewProblem(ctx, a, b, KWay, true)
			if err != nil {
				t.Fatal(err)
			}
			res, err := arm.solve(p, arm.opts)
			solveCheck(t, a, b, res, err, 1e-6)
			return res, ctx
		}
		want, _ := run(false)
		got, ctx := run(true)
		sameSolve(t, arm.name, want, got)
		if held := ctx.WorkspaceBytes(); held != (ctx.NumDevices+1)*lane*gpu.ScalarBytes {
			t.Fatalf("%s: workspace holds %d bytes after the solve: it was not served from the poisoned lanes", arm.name, held)
		}
	}
}

// TestResultSurvivesNextSolveOnTheContext: nothing a Result carries points
// into the workspace the next attempt overwrites.
func TestResultSurvivesNextSolveOnTheContext(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	ctx := gpu.NewContext(3, gpu.M2090())
	p, err := NewProblem(ctx, a, randomRHS(400, 7), KWay, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range solverArms {
		if err := p.SetB(randomRHS(400, 7)); err != nil {
			t.Fatal(err)
		}
		first, err := arm.solve(p, arm.opts)
		if err != nil {
			t.Fatal(err)
		}
		x, hist, ledger := slices.Clone(first.X), slices.Clone(first.History), first.Stats.String()
		if err := p.SetB(randomRHS(400, 8)); err != nil {
			t.Fatal(err)
		}
		if _, err := arm.solve(p, arm.opts); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(first.X, x) || !slices.Equal(first.History, hist) || first.Stats.String() != ledger {
			t.Fatalf("%s: the next solve on the context changed an earlier Result", arm.name)
		}
	}
}

// TestDeviceLossReplayOnWarmWorkspace: the seeded device-death scenario,
// replayed on one re-armed context — so the healed attempt's Survivors
// view draws from lanes the root's earlier attempts grew and dirtied —
// repeats the fresh-context run bit for bit.
func TestDeviceLossReplayOnWarmWorkspace(t *testing.T) {
	at := midSolveDeath(t, 3, CAGMRES, chaosOpts())
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 10)
	plan := gpu.FaultPlan{Seed: 42, Deaths: []gpu.DeviceDeath{{Device: 1, At: at}}}
	run := func(ctx *gpu.Context) *Result {
		ctx.InjectFaults(plan) // re-arming revives the dead device
		p, err := NewProblem(ctx, a, b, Natural, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CAGMRES(p, chaosOpts())
		if err != nil {
			t.Fatalf("solve did not survive the death: %v", err)
		}
		if res.Faults == nil || res.Faults.Repartitions != 1 || res.Faults.CheckpointRestores != 1 {
			t.Fatalf("fault report %+v, want one repartition resumed from a checkpoint", res.Faults)
		}
		return res
	}
	want := run(gpu.NewContext(3, gpu.M2090()))
	ctx := gpu.NewContext(3, gpu.M2090())
	run(ctx) // every lane now holds what its larger attempt asked of it
	held := ctx.WorkspaceBytes()
	if held == 0 {
		t.Fatal("the context kept no workspace")
	}
	sameSolve(t, "warm replay", want, run(ctx))
	if got := ctx.WorkspaceBytes(); got != held {
		t.Fatalf("replay regrew the workspace: %d -> %d bytes", held, got)
	}
}

// solveAllocBytes returns the bytes one solve of an n = nx*ny Laplacian
// allocates on a prepared problem and a warm context, net of the two
// n-vectors behind the returned X (GatherCol, Unmap) as the heap charges
// them, rounded up to their size class. Four devices keep
// every device's block of both sizes within one 4096-row panel of la's
// batched kernels, whose per-panel partial products (c x c per panel) are
// the one thing left that grows with the rows.
func solveAllocBytes(t *testing.T, nx, ny int, solve func(*Problem, Options) (*Result, error), opts Options) float64 {
	t.Helper()
	n := nx * ny
	ctx := gpu.NewContext(4, gpu.M2090())
	p, err := NewProblem(ctx, laplace2D(nx, ny, 0.3), randomRHS(n, 7), Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	run := func() {
		res, err := solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		iters = res.Iters
	}
	run() // builds the plan and grows the workspace
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if iters != opts.MaxRestarts*opts.M {
		t.Fatalf("n=%d: %d iterations, want %d restarts of %d", n, iters, opts.MaxRestarts, opts.M)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) - 2*vectorBytes(n)
}

var vectorSink []float64

// vectorBytes is what the heap charges for one n-vector.
func vectorBytes(n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vectorSink = make([]float64, n)
	runtime.ReadMemStats(&after)
	vectorSink = nil
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestSolveAllocationIndependentOfProblemSize: on a warm context a solve
// allocates per iteration, not per row — ten times the rows, the same
// iterations, the same bytes. (When every attempt allocated its own V, W
// and MPK buffers the two sizes differed tenfold.)
func TestSolveAllocationIndependentOfProblemSize(t *testing.T) {
	// One CPU, as the benchmark runs: with more, la's kernels fan a large
	// enough panel out over goroutines, which is a choice by size too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, arm := range []solveArm{
		// An unreachable tolerance: both sizes run all three restarts.
		{"CAGMRES(15,60)", CAGMRES, Options{M: 60, S: 15, Tol: 1e-300, MaxRestarts: 3}},
		{"GMRES(60)", GMRES, Options{M: 60, Tol: 1e-300, MaxRestarts: 3}},
	} {
		small := solveAllocBytes(t, 40, 40, arm.solve, arm.opts)
		large := solveAllocBytes(t, 40, 400, arm.solve, arm.opts)
		t.Logf("%s: %.0f bytes at n=1600, %.0f at n=16000", arm.name, small, large)
		if math.Abs(large-small) > 0.05*small {
			t.Errorf("%s: a solve allocates %.0f bytes at n=1600 but %.0f at n=16000", arm.name, small, large)
		}
	}
}
