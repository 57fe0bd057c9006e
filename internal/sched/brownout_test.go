package sched

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"cagmres/internal/matgen"
	"cagmres/internal/obs"
)

func promBody(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

// TestBrownoutShed drives the SLO engine's fast-burn window on a
// virtual clock until the brownout ladder engages, then asserts that
// Submit sheds exactly the priority classes below the active rung —
// without ever starting workers, so the test is a pure function of the
// admission gates.
func TestBrownoutShed(t *testing.T) {
	clk := newManualClock()
	const fastWindow = 300 // the default burn-rate horizon, in seconds
	reg := obs.NewRegistry()
	engine := obs.NewSLOEngine(reg, obs.SLOConfig{FastWindow: fastWindow}, clk)
	pool := NewPool(PoolConfig{Size: 1, Devices: 1})
	s := New(Config{
		Pool:     pool,
		Registry: reg,
		SLO:      engine,
		Brownout: &BrownoutConfig{Ladder: []int{1, 2}},
		Clock:    clk,
	})

	if lvl := s.BrownoutLevel(); lvl != 0 {
		t.Fatalf("fresh scheduler brownout level = %d, want 0", lvl)
	}
	a := testMatrix()
	if _, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 0), ""), 0, 0); err != nil {
		t.Fatalf("pre-brownout priority-0 submit rejected: %v", err)
	}

	// Every interactive request in the fast window blows its latency
	// target: burn = 1.0/(1-0.99) = 100, past both ladder thresholds.
	for i := 0; i < 20; i++ {
		engine.Observe(2, 10.0, true)
		clk.advance(time.Second)
	}

	if lvl := s.BrownoutLevel(); lvl != 2 {
		t.Fatalf("brownout level = %d, want 2", lvl)
	}
	for _, prio := range []int{0, 1} {
		_, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, prio), ""), prio, 0)
		var shed *BrownoutShedError
		if !errors.As(err, &shed) {
			t.Fatalf("priority-%d submit under brownout: err = %v, want *BrownoutShedError", prio, err)
		}
		if shed.Level != 2 || shed.MinPriority != 2 || shed.Priority != prio {
			t.Fatalf("shed error = %+v, want Level 2 MinPriority 2 Priority %d", shed, prio)
		}
		if shed.RetryAfter <= 0 {
			t.Fatalf("shed error carries no Retry-After hint: %+v", shed)
		}
	}
	if _, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 7), ""), 2, 0); err != nil {
		t.Fatalf("priority-2 submit under brownout rejected: %v", err)
	}

	snap := s.Snapshot()
	if snap.BrownoutLevel != 2 {
		t.Fatalf("Snapshot.BrownoutLevel = %d, want 2", snap.BrownoutLevel)
	}
	if snap.ShedBrownout != 2 {
		t.Fatalf("Snapshot.ShedBrownout = %d, want 2", snap.ShedBrownout)
	}

	body := promBody(t, reg)
	if !strings.Contains(body, `sched_shed_total{reason="brownout"} 2`) {
		t.Fatalf("metrics missing brownout shed counter:\n%s", body)
	}
	if !strings.Contains(body, "sched_brownout_level 2") {
		t.Fatalf("metrics missing brownout level gauge:\n%s", body)
	}

	// Burn subsides once the window rolls past the bad samples: the
	// ladder disengages and priority 0 is admitted again.
	clk.advance((fastWindow + 1) * time.Second)
	if lvl := s.BrownoutLevel(); lvl != 0 {
		t.Fatalf("brownout level after recovery = %d, want 0", lvl)
	}
	if _, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 8), ""), 0, 0); err != nil {
		t.Fatalf("post-recovery priority-0 submit rejected: %v", err)
	}
}

// TestBrownoutRungEngagesAtItsBurn pins where each rung engages: level k
// at a worst fast burn of k. Interactive requests (objective 99%) are
// observed with a bad fraction that puts the burn first in [1, 2), then
// in [2, 3), under a 2-rung ladder.
func TestBrownoutRungEngagesAtItsBurn(t *testing.T) {
	clk := newManualClock()
	engine := obs.NewSLOEngine(nil, obs.SLOConfig{}, clk)
	s := New(Config{
		Pool:     NewPool(PoolConfig{Size: 1, Devices: 1}),
		SLO:      engine,
		Brownout: &BrownoutConfig{Ladder: []int{1, 2}},
		Clock:    clk,
	})
	observe := func(good, bad int) {
		for i := 0; i < good+bad; i++ {
			engine.Observe(2, 0, i < bad)
			clk.advance(time.Second)
		}
	}
	for _, step := range []struct {
		good, bad int
		level     int
	}{
		{59, 1, 1}, // 1 bad of 60: burn 1.67
		{19, 1, 2}, // 2 bad of 80: burn 2.5
	} {
		observe(step.good, step.bad)
		burn := engine.Report().Classes[0].BurnFast
		if lvl := s.BrownoutLevel(); lvl != step.level {
			t.Fatalf("fast burn %.3f: brownout level = %d, want %d", burn, lvl, step.level)
		}
		if burn < float64(step.level) || burn >= float64(step.level+1) {
			t.Fatalf("fast burn %.3f outside [%d, %d)", burn, step.level, step.level+1)
		}
	}
}

// TestDeadlineInfeasibleGate primes the service-time EWMA with one real
// solve, then asserts that a submission whose deadline cannot cover a
// solve is rejected up front with the typed error and tallied.
func TestDeadlineInfeasibleGate(t *testing.T) {
	reg := obs.NewRegistry()
	pool := NewPool(PoolConfig{Size: 1, Devices: 1})
	s := New(Config{Pool: pool, Registry: reg, DeadlineMargin: 2})
	s.Start()
	defer s.Drain(context.Background())

	a := testMatrix()
	j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 1), ""), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if est := s.serviceEstimate(); est <= 0 {
		t.Fatalf("service estimate not primed after a completed solve: %v", est)
	}

	_, err = s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 2), ""), 0, time.Nanosecond)
	var inf *DeadlineInfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("infeasible-deadline submit: err = %v, want *DeadlineInfeasibleError", err)
	}
	if inf.Deadline != time.Nanosecond || inf.Estimate <= 0 {
		t.Fatalf("infeasible error = %+v, want Deadline 1ns and positive Estimate", inf)
	}

	if snap := s.Snapshot(); snap.ShedDeadlineInfeasible != 1 {
		t.Fatalf("Snapshot.ShedDeadlineInfeasible = %d, want 1", snap.ShedDeadlineInfeasible)
	}
	if body := promBody(t, reg); !strings.Contains(body, `sched_shed_total{reason="deadline_infeasible"} 1`) {
		t.Fatalf("metrics missing deadline_infeasible shed counter:\n%s", body)
	}

	// A generous deadline passes the gate.
	ok, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 3), ""), 0, time.Minute)
	if err != nil {
		t.Fatalf("feasible-deadline submit rejected: %v", err)
	}
	waitJob(t, ok)
}

// TestDeadlineExpiredShed stages a job whose deadline fires, on a
// manual clock, while the workers are stopped; dispatch must shed it as
// deadline_expired — a Canceled result without device time, tallied
// separately from a user cancel.
func TestDeadlineExpiredShed(t *testing.T) {
	reg := obs.NewRegistry()
	pool := NewPool(PoolConfig{Size: 1, Devices: 1})
	clk := newManualClock()
	s := New(Config{Pool: pool, Registry: reg, Clock: clk})

	a := testMatrix()
	j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 1), ""), 0, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	clk.fire() // the deadline expires before Start
	s.Start()
	defer s.Drain(context.Background())

	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("expired job never finished")
	}
	res, _ := j.Result()
	if res == nil || !res.Canceled {
		t.Fatalf("expired job result = %+v, want Canceled", res)
	}
	if snap := s.Snapshot(); snap.ShedDeadlineExpired != 1 {
		t.Fatalf("Snapshot.ShedDeadlineExpired = %d, want 1", snap.ShedDeadlineExpired)
	}
	if body := promBody(t, reg); !strings.Contains(body, `sched_shed_total{reason="deadline_expired"} 1`) {
		t.Fatalf("metrics missing deadline_expired shed counter:\n%s", body)
	}
}

// TestParseBrownoutLadder: the -brownout grammar of both daemons.
func TestParseBrownoutLadder(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		ladder  []int
		wantErr string // substring of the error, "" for none
	}{
		{"", nil, ""},
		{"1,2", []int{1, 2}, ""},
		{" 1 , 3 ", []int{1, 3}, ""},
		{"-1", []int{-1}, ""},
		{"1,two", nil, `ladder rung "two"`},
		{"1,,2", nil, `ladder rung ""`},
		{"2,2", []int{2, 2}, ""},
		{"2,1", nil, `ladder rung "1": admits priority 1, which rung 1 sheds`},
	} {
		cfg, err := ParseBrownoutLadder(tc.spec)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: error %v, want one naming %s", tc.spec, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.spec, err)
		case tc.ladder == nil:
			if cfg != nil {
				t.Errorf("%q: config %+v, want nil (brownout off)", tc.spec, cfg)
			}
		case cfg == nil || !slices.Equal(cfg.Ladder, tc.ladder):
			t.Errorf("%q: config %+v, want ladder %v", tc.spec, cfg, tc.ladder)
		}
	}
}
