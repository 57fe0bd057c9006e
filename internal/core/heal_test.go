package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
)

// chaosOpts is the solver configuration every healing test uses, so the
// fault-free and faulted runs are directly comparable.
func chaosOpts() Options {
	return Options{M: 20, S: 5, Tol: 1e-6, Ortho: "CholQR"}
}

// midSolveDeath runs the workload fault-free on ng devices and returns a
// death time landing mid-solve (half the fault-free virtual duration) —
// late enough that real restarts have completed, early enough that real
// work remains.
func midSolveDeath(t *testing.T, ng int, solve func(*Problem, Options) (*Result, error), opts Options) float64 {
	t.Helper()
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 10)
	ctx := gpu.NewContext(ng, gpu.M2090())
	p, err := NewProblem(ctx, a, b, Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(p, opts)
	if err != nil || !res.Converged {
		t.Fatalf("fault-free reference did not converge: %v %+v", err, res)
	}
	return res.Stats.TotalTime() / 2
}

// TestCAGMRESSurvivesDeviceLossMidSolve is the acceptance scenario of
// the fault-injection PR: a seeded chaos plan kills 1 of 3 devices
// mid-CA-GMRES; the solve must re-partition onto the 2 survivors, resume
// from the last restart checkpoint, and still converge to the same
// tolerance as the fault-free run — deterministically, because all of it
// happens on the virtual clock.
func TestCAGMRESSurvivesDeviceLossMidSolve(t *testing.T) {
	at := midSolveDeath(t, 3, CAGMRES, chaosOpts())
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 10)

	var reparts []obs.Record
	run := func() *Result {
		ctx := gpu.NewContext(3, gpu.M2090())
		ctx.InjectFaults(gpu.FaultPlan{Seed: 42, Deaths: []gpu.DeviceDeath{{Device: 1, At: at}}})
		p, err := NewProblem(ctx, a, b, Natural, false)
		if err != nil {
			t.Fatal(err)
		}
		opts := chaosOpts()
		reparts = reparts[:0]
		opts.Telemetry = obs.SinkFunc(func(r obs.Record) {
			if r.Kind == "repartition" {
				reparts = append(reparts, r)
			}
		})
		res, err := CAGMRES(p, opts)
		if err != nil {
			t.Fatalf("solve did not survive the death: %v", err)
		}
		return res
	}

	res := run()
	if !res.Converged {
		t.Fatalf("faulted solve did not converge: relres %v", res.RelRes)
	}
	solveCheck(t, a, b, res, nil, 1e-5)
	if res.Faults == nil {
		t.Fatal("no fault report on a faulted solve")
	}
	if got := res.Faults.DevicesLost; len(got) != 1 || got[0] != 1 {
		t.Fatalf("DevicesLost = %v, want [1]", got)
	}
	if res.Faults.Repartitions < 1 {
		t.Fatal("no repartition recorded")
	}
	if res.Faults.CheckpointRestores < 1 {
		t.Fatal("recovery did not resume from a checkpoint with progress")
	}
	if len(reparts) != res.Faults.Repartitions {
		t.Fatalf("telemetry saw %d repartitions, report says %d", len(reparts), res.Faults.Repartitions)
	}
	if reparts[0].Step != 2 {
		t.Fatalf("repartition record reports %d survivors, want 2", reparts[0].Step)
	}

	// Determinism: the whole scenario — death time, recovery, final
	// clock — replays bit-identically.
	res2 := run()
	if res.Stats.TotalTime() != res2.Stats.TotalTime() {
		t.Fatalf("chaos runs diverge: %v vs %v", res.Stats.TotalTime(), res2.Stats.TotalTime())
	}
	if res.Iters != res2.Iters || res.Restarts != res2.Restarts || res.RelRes != res2.RelRes {
		t.Fatalf("chaos runs diverge: %+v vs %+v", res, res2)
	}
}

// TestDegradedModeTable pins EXPERIMENTS.md's degraded-mode table: on
// laplace3d@1e-4 (3 devices, k-way + balance, CA-GMRES(5,20), CholQR,
// tol 1e-8), device 1 dies at 90% of the fault-free modeled time. The
// degraded solve re-partitions onto the two survivors, restores one
// checkpoint, converges, and replays bit-identically. The Overlap arm
// places the death on the stream clock, whose horizon ends before the
// serialized ledger total.
func TestDegradedModeTable(t *testing.T) {
	gen, err := matgen.ByName("laplace3d", 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	b := matgen.RHS(gen.A.Rows, 1)
	solve := func(overlap bool, plan *gpu.FaultPlan) (*Result, *gpu.Context) {
		t.Helper()
		ctx := gpu.NewContext(3, gpu.M2090())
		if plan != nil {
			ctx.InjectFaults(*plan)
		}
		p, err := NewProblem(ctx, gen.A, b, KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CAGMRES(p, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Overlap: overlap})
		if err != nil || !res.Converged {
			t.Fatalf("overlap=%v faults=%v: %v %+v", overlap, plan != nil, err, res)
		}
		return res, ctx
	}
	// row renders a solve as the table prints it.
	row := func(res *Result, seconds float64) string {
		recovery := "—"
		if f := res.Faults; f != nil {
			recovery = fmt.Sprintf("%d repartition, %d checkpoint restore", f.Repartitions, f.CheckpointRestores)
		}
		return fmt.Sprintf("%.6f | %d | %.2e | %s", seconds, res.Iters, res.RelRes, recovery)
	}

	for _, overlap := range []bool{false, true} {
		clean, cleanCtx := solve(overlap, nil)
		cleanTime := clean.Stats.TotalTime()
		if overlap {
			cleanTime = cleanCtx.OverlappedTime()
		}
		plan := gpu.FaultPlan{Seed: 7, Deaths: []gpu.DeviceDeath{{Device: 1, At: 0.9 * cleanTime}}}
		deg, _ := solve(overlap, &plan)
		if deg.Faults == nil || len(deg.Faults.DevicesLost) != 1 || deg.Faults.Repartitions != 1 {
			t.Fatalf("overlap=%v: the armed death did not fire once: %+v", overlap, deg.Faults)
		}
		replay, _ := solve(overlap, &plan)
		if replay.Stats.TotalTime() != deg.Stats.TotalTime() || replay.Iters != deg.Iters ||
			replay.RelRes != deg.RelRes || !reflect.DeepEqual(replay.Faults, deg.Faults) {
			t.Fatalf("overlap=%v: degraded replay diverged:\n  run 1: %+v\n  run 2: %+v", overlap, deg, replay)
		}
		if overlap {
			continue
		}
		for _, c := range []struct{ got, want string }{
			{row(clean, cleanTime), "0.002277 | 25 | 7.01e-10 | —"},
			{row(deg, deg.Stats.TotalTime()), "0.002337 | 25 | 7.01e-10 | 1 repartition, 1 checkpoint restore"},
		} {
			if c.got != c.want {
				t.Errorf("table row %q, want %q", c.got, c.want)
			}
		}
	}
}

func TestGMRESSurvivesDeviceLossMidSolve(t *testing.T) {
	opts := Options{M: 20, Tol: 1e-6, Ortho: "CGS"}
	at := midSolveDeath(t, 3, GMRES, opts)
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 10)

	ctx := gpu.NewContext(3, gpu.M2090())
	ctx.InjectFaults(gpu.FaultPlan{Deaths: []gpu.DeviceDeath{{Device: 0, At: at}}})
	p, err := NewProblem(ctx, a, b, Natural, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := GMRES(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a, b, res, err, 1e-5)
	if res.Faults == nil || res.Faults.Repartitions < 1 {
		t.Fatalf("fault report missing or empty: %+v", res.Faults)
	}
}

func TestSolveUnrecoverableWhenLastDeviceDies(t *testing.T) {
	a := laplace2D(10, 10, 0)
	b := randomRHS(100, 3)
	ctx := gpu.NewContext(1, gpu.M2090())
	ctx.InjectFaults(gpu.FaultPlan{Deaths: []gpu.DeviceDeath{{Device: 0, At: 0}}})
	p, _ := NewProblem(ctx, a, b, Natural, false)
	_, err := CAGMRES(p, chaosOpts())
	var lost *gpu.DeviceLostError
	if err == nil || !errors.As(err, &lost) {
		t.Fatalf("want wrapped DeviceLostError, got %v", err)
	}
}

func TestTransferExhaustionSurfacesAsError(t *testing.T) {
	// Transfer faults that exhaust the retry policy are NOT healed in
	// core — they bubble up as errors for the scheduler to re-queue.
	a := laplace2D(10, 10, 0)
	b := randomRHS(100, 4)
	ctx := gpu.NewContext(2, gpu.M2090())
	ctx.InjectFaults(gpu.FaultPlan{Seed: 5, TransferFaultProb: 1})
	p, _ := NewProblem(ctx, a, b, Natural, false)
	_, err := CAGMRES(p, chaosOpts())
	var te *gpu.TransferError
	if err == nil || !errors.As(err, &te) {
		t.Fatalf("want TransferError, got %v", err)
	}
}

func TestTransferRetriesReportedOnSuccess(t *testing.T) {
	a := laplace2D(16, 16, 0.2)
	b := randomRHS(256, 5)
	ctx := gpu.NewContext(2, gpu.M2090())
	ctx.InjectFaults(gpu.FaultPlan{Seed: 9, TransferFaultProb: 0.05})
	p, _ := NewProblem(ctx, a, b, Natural, false)
	res, err := CAGMRES(p, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	solveCheck(t, a, b, res, err, 1e-5)
	if res.Faults == nil || res.Faults.TransferRetries == 0 {
		t.Fatalf("retries not reported: %+v", res.Faults)
	}
	if res.Faults.Repartitions != 0 {
		t.Fatalf("no device died, yet %d repartitions", res.Faults.Repartitions)
	}
}

func TestFaultFreeSolveCarriesNoReport(t *testing.T) {
	a := laplace2D(12, 12, 0.1)
	b := randomRHS(144, 6)
	ctx := gpu.NewContext(2, gpu.M2090())
	p, _ := NewProblem(ctx, a, b, Natural, false)
	res, err := CAGMRES(p, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Fatalf("fault-free solve carries a report: %+v", res.Faults)
	}
}

// TestRitzValuesReturnsFaultAsError: the eigen path runs inside the same
// recovery boundary as the solvers, so an injected device death comes
// back as an error rather than escaping the public API as a panic.
func TestRitzValuesReturnsFaultAsError(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	for _, s := range []int{1, 5} {
		ctx := gpu.NewContext(3, gpu.M2090())
		ctx.InjectFaults(gpu.FaultPlan{Deaths: []gpu.DeviceDeath{{Device: 1, At: 1e-5}}})
		p, err := NewProblem(ctx, a, make([]float64, 400), Natural, false)
		if err != nil {
			t.Fatal(err)
		}
		ritz, err := RitzValues(p, Options{M: 20, S: s, Ortho: "CholQR"}, randomRHS(400, 5))
		var lost *gpu.DeviceLostError
		if !errors.As(err, &lost) {
			t.Fatalf("s=%d: want DeviceLostError, got %v", s, err)
		}
		if ritz != nil {
			t.Fatalf("s=%d: faulted run returned %d Ritz values", s, len(ritz))
		}
	}
}

// midWindowCharge walks a fault-free trace and returns the third kernel
// charge of the solve's middle MPK window — the second step's, or under
// overlap the first step's split in two and then the second step's — as
// the Seq of its first event, and the ledger-clock time halfway between
// the starts of the second and third charges: a death armed there on the
// serialized schedule fires on the third.
func midWindowCharge(t *testing.T, events []gpu.Event) (seq int, at float64) {
	t.Helper()
	var windows [][]gpu.Event // per window: device 0's kernel events
	var starts [][]float64
	gpu.WalkSlices(events, func(e gpu.Event, at float64, _ int, _ string) {
		if e.Phase != PhaseMPK {
			return
		}
		switch {
		case e.Kind != "kernel":
			if len(windows) == 0 || len(windows[len(windows)-1]) > 0 {
				windows, starts = append(windows, nil), append(starts, nil)
			}
		case e.Device == 0:
			w := len(windows) - 1
			windows[w], starts[w] = append(windows[w], e), append(starts[w], at)
		}
	})
	if len(windows) < 3 {
		t.Fatalf("fault-free trace has %d MPK windows", len(windows))
	}
	w := len(windows) / 2
	return windows[w][2].Seq, (starts[w][1] + starts[w][2]) / 2
}

// TestDeviceLossMidMPKWindow kills device 1 on a step charge in the
// middle of an MPK window rather than on its first step. The charge comes
// from a fault-free trace; so does the death time without overlap, where
// deaths fire on the ledger clock. Under overlap they fire on the stream
// horizon, which the trace does not carry, so the time is bisected on
// faulted runs until the death lands on that charge. When it fires, the
// window's device fork has already computed every step's column; the
// healed solve must not read them but resume from the restart
// checkpoint. X, Iters, History and the fault report are pinned, and no
// device goroutine outlives the solves.
func TestDeviceLossMidMPKWindow(t *testing.T) {
	a := laplace2D(20, 20, 0.3)
	b := randomRHS(400, 10)
	solve := func(overlap bool, plan *gpu.FaultPlan) *Result {
		t.Helper()
		ctx := gpu.NewContext(3, gpu.M2090())
		ctx.Stats().EnableTrace(1 << 20)
		if plan != nil {
			ctx.InjectFaults(*plan)
		}
		p, err := NewProblem(ctx, a, b, Natural, false)
		if err != nil {
			t.Fatal(err)
		}
		opts := chaosOpts()
		opts.Overlap = overlap
		res, err := CAGMRES(p, opts)
		if err != nil || !res.Converged {
			t.Fatalf("overlap=%v faults=%v: %v %+v", overlap, plan != nil, err, res)
		}
		return res
	}
	// death returns the healed solve of a death at the given time and the
	// trace event that records the death (nil if it never fired).
	death := func(overlap bool, at float64) (*Result, *gpu.Event) {
		res := solve(overlap, &gpu.FaultPlan{Seed: 3, Deaths: []gpu.DeviceDeath{{Device: 1, At: at}}})
		ev := res.Stats.Trace()
		for i := range ev {
			if ev[i].Kind == "fault-death" {
				return res, &ev[i]
			}
		}
		return res, nil
	}
	for _, c := range []struct {
		overlap bool
		x, hist uint64
		iters   int
	}{
		{false, 0x3090c1a90f0548a8, 0xb69aa56c80ab3f51, 79},
		{true, 0x3090c1a90f0548a8, 0xb69aa56c80ab3f51, 79},
	} {
		base := runtime.NumGoroutine()
		clean := solve(c.overlap, nil)
		target, at := midWindowCharge(t, clean.Stats.Trace())
		lo, hi := 0.0, clean.Stats.TotalTime()
		res, ev := death(c.overlap, at)
		for i := 0; i < 64 && (ev == nil || ev.Seq != target); i++ {
			if ev != nil && ev.Seq < target {
				lo = at
			} else {
				hi = at
			}
			at = (lo + hi) / 2
			res, ev = death(c.overlap, at)
		}
		if ev == nil || ev.Seq != target || ev.Phase != PhaseMPK {
			t.Fatalf("overlap=%v: no death time lands on charge %d, last %+v", c.overlap, target, ev)
		}
		want := &FaultReport{DevicesLost: []int{1}, Repartitions: 1, CheckpointRestores: 1}
		if !reflect.DeepEqual(res.Faults, want) {
			t.Errorf("overlap=%v: fault report %+v, want %+v", c.overlap, res.Faults, want)
		}
		x, hist := hashFloats(res.X), hashFloats(res.History)
		if x != c.x || hist != c.hist || res.Iters != c.iters {
			t.Errorf("overlap=%v: healed solve x=%#x history=%#x iters=%d, want %#x %#x %d",
				c.overlap, x, hist, res.Iters, c.x, c.hist, c.iters)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("overlap=%v: %d goroutines after the solves, %d before", c.overlap, n, base)
		}
	}
}

// hashFloats hashes the bits of xs.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}
