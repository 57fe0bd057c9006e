package main

import (
	"math"
	"sort"
	"testing"

	"cagmres/internal/obs"
)

// TestReplayPinsQueueWaitAndBurnRates is the issue's deterministic load
// test: a fixed service-time table through the closed-loop replay must
// produce exactly the queue waits computed here by hand, and feeding the
// same (submit, finish) stamps into the SLO engine on the virtual clock
// must pin the burn-rate and budget numbers.
func TestReplayPinsQueueWaitAndBurnRates(t *testing.T) {
	// 2 clients × 2 requests on 1 server. Seed layout: client c request i
	// uses service[c*requests+i].
	service := []float64{0.001, 0.002, 0.003, 0.004}
	const overhead = 0.0001
	rs, makespan := replay(2, 2, 1, service, overhead)
	if len(rs) != 4 {
		t.Fatalf("%d samples, want 4", len(rs))
	}
	// Hand replay (client 0 wins index tiebreaks at t=0):
	//  1. c0r0: submit 0,       start 0,       finish 0.0011
	//  2. c1r0: submit 0,       start 0.0011,  finish 0.0011+0.003+overhead
	//  3. c0r1: submit 0.0011,  start at c1r0's finish, +0.002+overhead
	//  4. c1r1: submit = c1r0 finish, start = c0r1 finish, +0.004+overhead
	f1 := service[0] + overhead
	f2 := f1 + service[2] + overhead
	f3 := f2 + service[1] + overhead
	f4 := f3 + service[3] + overhead
	want := []reqSample{
		{submit: 0, start: 0, finish: f1},
		{submit: 0, start: f1, finish: f2},
		{submit: f1, start: f2, finish: f3},
		{submit: f2, start: f3, finish: f4},
	}
	for i, w := range want {
		if rs[i] != w {
			t.Errorf("sample %d = %+v, want %+v (exact)", i, rs[i], w)
		}
	}
	if makespan != f4 {
		t.Errorf("makespan %v, want %v", makespan, f4)
	}

	// Queue waits are start-submit; pinned exactly.
	wantWaits := []float64{0, f1, f2 - f1, f3 - f2}
	sort.Float64s(wantWaits)
	var waits []float64
	for _, r := range rs {
		waits = append(waits, r.start-r.submit)
	}
	sort.Float64s(waits)
	for i := range waits {
		if waits[i] != wantWaits[i] {
			t.Errorf("wait[%d] = %v, want %v", i, waits[i], wantWaits[i])
		}
	}

	// Fast path: every latency is far under the default standard target
	// (5s), so the budget is untouched and nothing burns.
	eng := obs.NewSLOEngine(nil, obs.SLOConfig{})
	for _, r := range rs {
		eng.ObserveAt(r.finish, 0, r.finish-r.submit, false)
	}
	rep := eng.ReportAt(makespan)
	std := findClass(t, rep, "standard")
	if std.Requests != 4 || std.Bad != 0 {
		t.Fatalf("standard = %d/%d, want 4 good", std.Bad, std.Requests)
	}
	if std.BudgetRemaining != 1 || std.BurnFast != 0 || std.BurnSlow != 0 {
		t.Fatalf("fast-path SLO not pristine: %+v", std)
	}
	if rep.Degraded {
		t.Fatal("fast path degraded")
	}

	// Slow path: 6s services blow the 5s target on every request — the
	// burn rate in both windows is exactly 1/(1-objective) and the budget
	// 1 - 1/(1-objective), computed with the engine's own arithmetic.
	slow := []float64{6, 6, 6, 6}
	rs2, makespan2 := replay(2, 2, 1, slow, 0)
	eng2 := obs.NewSLOEngine(nil, obs.SLOConfig{})
	ordered := append([]reqSample(nil), rs2...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].finish < ordered[j].finish })
	for _, r := range ordered {
		eng2.ObserveAt(r.finish, 0, r.finish-r.submit, false)
	}
	rep2 := eng2.ReportAt(makespan2)
	std2 := findClass(t, rep2, "standard")
	if std2.Requests != 4 || std2.Bad != 4 {
		t.Fatalf("slow path = %d/%d bad, want 4/4", std2.Bad, std2.Requests)
	}
	objective := std2.Objective
	wantBurn := 1.0 / (1 - objective)
	wantBudget := 1 - float64(4)/((1-objective)*4)
	if std2.BurnFast != wantBurn || std2.BurnSlow != wantBurn {
		t.Fatalf("burn = %v/%v, want %v exactly", std2.BurnFast, std2.BurnSlow, wantBurn)
	}
	if std2.BudgetRemaining != wantBudget {
		t.Fatalf("budget = %v, want %v exactly", std2.BudgetRemaining, wantBudget)
	}
	if !std2.Degraded || !rep2.Degraded {
		t.Fatal("all-bad slow path not degraded")
	}
	if math.IsInf(wantBurn, 0) {
		t.Fatal("degenerate objective in default classes")
	}
}

func findClass(t *testing.T, rep obs.SLOReport, name string) obs.SLOClassReport {
	t.Helper()
	for _, c := range rep.Classes {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no class %q in %+v", name, rep)
	return obs.SLOClassReport{}
}

// TestRPCOverheadPinned pins the per-request RPC overhead of the default
// virtual run (laplace3d at scale 1e-4, n = 125) to its exact float64:
// 2000 bytes on one core's quarter of the host bus plus four 1 µs
// dispatches. Every virtual sweep latency carries it, so a drift in the
// host-kernel formula shows here before it moves the sweep table.
func TestRPCOverheadPinned(t *testing.T) {
	const want = 4.2e-06 // 0x3ed19db7358bd307
	if got := rpcOverhead(125); got != want {
		t.Fatalf("rpc overhead %v (%#x), want %v", got, math.Float64bits(got), want)
	}
}
