package obs

import (
	"math"
	"strings"
	"testing"
	"time"

	"cagmres/internal/clock"
)

// testClock is the obs tests' Clock: it reads the Unix second a test
// sets with at. It has no timers.
type testClock struct{ t float64 }

func (c *testClock) at(t float64) { c.t = t }

func (c *testClock) Now() time.Time { return time.Unix(0, int64(c.t*1e9)) }

func (c *testClock) AfterFunc(time.Duration, func()) clock.Timer { panic("testClock has no timers") }

func (c *testClock) Attempt(time.Time, float64) {}

// testSLOCfg: one catch-all class with power-of-two objective so every
// budget/burn number below is exact in float64, over small windows that
// make expiry easy to exercise.
func testSLOCfg() SLOConfig {
	return SLOConfig{
		Classes: []SLOClass{
			{Name: "t", MinPriority: math.MinInt32, LatencyTarget: 1.0, Objective: 0.5},
		},
		BudgetWindow: 100, FastWindow: 10, SlowWindow: 100,
	}
}

func TestSLOBudgetAndBurnExact(t *testing.T) {
	clk := &testClock{}
	e := NewSLOEngine(nil, testSLOCfg(), clk)
	// 9 good early, 3 bad late (latency over the 1s target).
	for i := 0; i < 9; i++ {
		clk.at(float64(1 + i))
		e.Observe(0, 0.5, false)
	}
	for i := 0; i < 3; i++ {
		clk.at(float64(95 + i))
		e.Observe(0, 2.0, false)
	}
	clk.at(100)
	rep := e.Report()
	if len(rep.Classes) != 1 {
		t.Fatalf("classes = %d", len(rep.Classes))
	}
	c := rep.Classes[0]
	// Budget window (0,100]: 12 requests, 3 bad, allowed 0.5*12=6 → 0.5 left.
	if c.Requests != 12 || c.Bad != 3 {
		t.Fatalf("requests/bad = %d/%d, want 12/3", c.Requests, c.Bad)
	}
	if c.BudgetRemaining != 0.5 {
		t.Fatalf("budget = %v, want 0.5 exactly", c.BudgetRemaining)
	}
	// Fast window (90,100]: 3/3 bad → burn (1)/(0.5) = 2; slow window is
	// the whole stream → (3/12)/0.5 = 0.5. Only one window burns, so the
	// class is not degraded.
	if c.BurnFast != 2.0 || c.BurnSlow != 0.5 {
		t.Fatalf("burn fast/slow = %v/%v, want 2/0.5 exactly", c.BurnFast, c.BurnSlow)
	}
	if c.Degraded || rep.Degraded {
		t.Fatalf("degraded with only the fast window burning: %+v", c)
	}

	// Everything expires out of the windows: a later report is pristine.
	clk.at(300)
	rep = e.Report()
	c = rep.Classes[0]
	if c.Requests != 0 || c.Bad != 0 || c.BudgetRemaining != 1 || c.BurnFast != 0 || c.BurnSlow != 0 {
		t.Fatalf("expired windows not pristine: %+v", c)
	}

	// One bad request alone in both windows burns 2.0 in each → degraded,
	// with the budget overspent (1 - 1/0.5 = -1).
	clk.at(295)
	e.Observe(0, 0.2, true) // failed: bad regardless of latency
	clk.at(300)
	rep = e.Report()
	c = rep.Classes[0]
	if c.BurnFast != 2.0 || c.BurnSlow != 2.0 || !c.Degraded || !rep.Degraded {
		t.Fatalf("lone failure not degrading both windows: %+v", c)
	}
	if c.BudgetRemaining != -1.0 {
		t.Fatalf("budget = %v, want -1 exactly", c.BudgetRemaining)
	}
}

func TestSLOClassMatching(t *testing.T) {
	cfg := testSLOCfg()
	cfg.Classes = []SLOClass{
		{Name: "standard", MinPriority: math.MinInt32, LatencyTarget: 5, Objective: 0.5},
		{Name: "interactive", MinPriority: 1, LatencyTarget: 1, Objective: 0.75},
	}
	clk := &testClock{}
	e := NewSLOEngine(nil, cfg, clk)
	clk.at(1)
	e.Observe(0, 2.0, false) // standard: 2s < 5s target → good
	clk.at(2)
	e.Observe(1, 2.0, false) // interactive: 2s > 1s target → bad
	clk.at(3)
	e.Observe(7, 0.5, false) // interactive: good
	clk.at(10)
	rep := e.Report()
	got := map[string][2]int{}
	for _, c := range rep.Classes {
		got[c.Name] = [2]int{c.Requests, c.Bad}
	}
	if got["standard"] != [2]int{1, 0} {
		t.Fatalf("standard = %v, want {1 0}", got["standard"])
	}
	if got["interactive"] != [2]int{2, 1} {
		t.Fatalf("interactive = %v, want {2 1}", got["interactive"])
	}

	// Every class above the priority: fall back to the loosest class
	// rather than dropping the sample.
	cfg.Classes = []SLOClass{{Name: "high", MinPriority: 5, LatencyTarget: 1, Objective: 0.5}}
	e = NewSLOEngine(nil, cfg, clk)
	clk.at(1)
	e.Observe(0, 0.1, false)
	clk.at(2)
	if rep := e.Report(); rep.Classes[0].Requests != 1 {
		t.Fatalf("fallback class did not absorb the sample: %+v", rep.Classes[0])
	}
}

func TestSLOObserveClampsBackward(t *testing.T) {
	clk := &testClock{}
	e := NewSLOEngine(nil, testSLOCfg(), clk)
	clk.at(100)
	e.Observe(0, 0.1, false)
	clk.at(50)
	e.Observe(0, 0.1, false) // clamped forward to 100
	clk.at(100)
	rep := e.Report()
	// Fast window (90,100] must hold both samples; un-clamped, the second
	// would sit at 50 outside it.
	if total := rep.Classes[0].Requests; total != 2 {
		t.Fatalf("budget window total = %d, want 2", total)
	}
	if rep.Classes[0].BurnFast != 0 {
		t.Fatalf("burn fast = %v, want 0", rep.Classes[0].BurnFast)
	}
}

func TestSLOMetricsEager(t *testing.T) {
	reg := NewRegistry()
	e := NewSLOEngine(reg, SLOConfig{}, nil)
	var w writeBuf
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	// Before any traffic: every family declared, budgets at 1.
	if err := RequireFamilies(w.b, []string{
		"slo_requests_total", "slo_latency_seconds", "slo_latency_target_seconds",
		"slo_objective", "slo_error_budget_remaining", "slo_burn_rate",
	}); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheus(w.b); err != nil {
		t.Fatal(err)
	}

	e.Observe(1, 0.1, false)
	e.Observe(0, 9.0, false) // over the standard 5s target → bad
	e.Report()
	w = writeBuf{}
	if err := reg.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	out := string(w.b)
	for _, want := range []string{
		`slo_requests_total{class="interactive",result="good"} 1`,
		`slo_requests_total{class="standard",result="bad"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
