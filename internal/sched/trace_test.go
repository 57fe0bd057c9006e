package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
)

const testTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
const testTraceID = "0af7651916cd43dd8448eb211c80319c"

// TestJobTraceReconcilesDeviceLanes is the issue's acceptance property:
// a finished job's stitched trace must reconcile with its gpu.Stats
// ledger exactly — per-(device,phase) kernel durations equal to
// DevicePhase in float64, both directly and through the rendered Chrome
// export — with the trace id round-tripped from the caller's
// traceparent. Exercised in sync mode, overlap mode, and across a
// seeded device death that heals mid-solve.
func TestJobTraceReconcilesDeviceLanes(t *testing.T) {
	a := testMatrix()
	modes := []struct {
		name    string
		overlap bool
		faults  []gpu.FaultPlan
	}{
		{"sync", false, nil},
		{"overlap", true, nil},
		{"faulted", false, []gpu.FaultPlan{{Deaths: []gpu.DeviceDeath{{Device: 1, At: 0}}}}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			pool := NewPool(PoolConfig{
				Size: 1, Devices: 3,
				TraceEvents: 1 << 14, FaultPlans: mode.faults, Repair: true,
			})
			s := New(Config{Pool: pool, QueueDepth: 4, MaxBatch: 1})
			s.Start()
			defer func() {
				if err := s.Drain(context.Background()); err != nil {
					t.Error(err)
				}
			}()

			spec := testSpec(a, matgen.RHS(a.Rows, 1), "")
			spec.Opts.Overlap = mode.overlap
			root := s.Tracer().Root("solve", testTraceparent)
			j, err := s.Submit(obs.ContextWithSpan(context.Background(), root), spec, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			res := waitJob(t, j)
			if !res.Converged {
				t.Fatalf("solve did not converge: relres %v", res.RelRes)
			}

			// Trace id round trip: header → context → job.
			if j.TraceID() != testTraceID {
				t.Fatalf("job trace id %q, want adopted %q", j.TraceID(), testTraceID)
			}
			jt := j.Trace()
			stats := jt.Stats()
			if stats == nil {
				t.Fatal("no ledger attached to the finished job")
			}
			if stats != res.Stats {
				t.Fatal("attached ledger is not the result's Stats")
			}

			// Direct reconciliation: lane sums == DevicePhase exactly.
			if err := obs.ReconcileDeviceLanes(stats); err != nil {
				t.Fatal(err)
			}

			// The span stream lints clean (single trace, acyclic, nested)
			// and carries the serving structure.
			var spanBuf bytes.Buffer
			if err := jt.WriteSpansJSONL(&spanBuf); err != nil {
				t.Fatal(err)
			}
			spans, err := obs.LintSpans(spanBuf.Bytes())
			if err != nil {
				t.Fatalf("span stream fails lint: %v\n%s", err, spanBuf.String())
			}
			kinds := map[string]int{}
			for _, sp := range spans {
				kinds[sp.Kind]++
			}
			for _, want := range []string{obs.KindRequest, obs.KindQueue, obs.KindLease, obs.KindSolver} {
				if kinds[want] == 0 {
					t.Errorf("no %q span in %v", want, kinds)
				}
			}
			if mode.faults != nil && kinds[obs.KindHeal] == 0 {
				t.Errorf("faulted solve recorded no heal spans: %v", kinds)
			}

			// Rendered Chrome export: summing each device lane's kernel
			// slices by phase name reproduces the ledger term for term.
			var buf bytes.Buffer
			if err := jt.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var tf gpu.ChromeTrace
			if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
				t.Fatal(err)
			}
			type key struct {
				dev   int
				phase string
			}
			got := map[key]float64{}
			for _, ev := range tf.TraceEvents {
				if ev.Ph != "X" || ev.Pid != 1 || ev.Cat != "kernel" {
					continue
				}
				d, ok := ev.Args["device"]
				if !ok {
					continue
				}
				got[key{int(d.(float64)), ev.Name}] += ev.Dur
			}
			if len(got) == 0 {
				t.Fatal("no device kernel slices in the Chrome export")
			}
			// Same accumulation order and the same *1e6 scaling as the
			// renderer, so equality is exact, not approximate.
			want := map[key]float64{}
			for _, e := range stats.Trace() {
				if e.Kind != "kernel" || e.Device < 0 {
					continue
				}
				want[key{e.Device, e.Phase}] += e.Time * 1e6
			}
			if len(got) != len(want) {
				t.Fatalf("lane groups %d, ledger groups %d", len(got), len(want))
			}
			for k, w := range want {
				if g := got[k]; g != w {
					t.Errorf("device %d phase %q: lane sum %.17g us != ledger %.17g us", k.dev, k.phase, g, w)
				}
			}
		})
	}
}

// TestSchedulerSLOObservesTerminalJobs drives one good and one canceled
// job through a scheduler wired to a deterministic SLO engine and checks
// both outcomes land in the report.
func TestSchedulerSLOObservesTerminalJobs(t *testing.T) {
	a := testMatrix()
	reg := obs.NewRegistry()
	slo := obs.NewSLOEngine(reg, obs.SLOConfig{}, nil)
	pool := NewPool(PoolConfig{Size: 1, Devices: 2})
	s := New(Config{Pool: pool, QueueDepth: 8, MaxBatch: 1, Registry: reg, SLO: slo})
	s.Start()

	j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 0), ""), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := slo.Report()
	total := 0
	for _, c := range rep.Classes {
		total += c.Requests
	}
	if total != 1 {
		t.Fatalf("SLO observed %d requests, want 1 (report %+v)", total, rep)
	}
}
