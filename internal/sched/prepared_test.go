package sched

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
)

// solveNow submits one job and waits for its result.
func solveNow(t *testing.T, s *Scheduler, spec Spec) (*Job, *core.Result) {
	t.Helper()
	j, err := s.Submit(context.Background(), spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j, waitJob(t, j)
}

// prepareSpan returns the cache attribute of the job's prepare spans,
// and fails unless each hangs under a lease span.
func prepareSpans(t *testing.T, j *Job) []string {
	t.Helper()
	spans := j.Trace().Spans()
	kindOf := map[string]string{}
	for _, sp := range spans {
		kindOf[sp.SpanID] = sp.Kind
	}
	var out []string
	for _, sp := range spans {
		if sp.Kind != obs.KindPrepare {
			continue
		}
		if kindOf[sp.Parent] != obs.KindLease {
			t.Fatalf("prepare span %s hangs under a %q span, want a lease", sp.SpanID, kindOf[sp.Parent])
		}
		if sp.End < sp.Start || sp.Start == 0 {
			t.Fatalf("prepare span has wall stamps %v..%v", sp.Start, sp.End)
		}
		out = append(out, sp.Attrs["cache"])
	}
	return out
}

// size reports the number of cached preparations.
func (c *preparedCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func wantPrepared(t *testing.T, s *Scheduler, hits, misses, evictions uint64) {
	t.Helper()
	sn := s.Snapshot()
	if sn.PreparedHits != hits || sn.PreparedMisses != misses || sn.PreparedEvictions != evictions {
		t.Fatalf("prepared cache hit/miss/evict = %d/%d/%d, want %d/%d/%d",
			sn.PreparedHits, sn.PreparedMisses, sn.PreparedEvictions, hits, misses, evictions)
	}
}

// TestPreparedProblemReusedAcrossBatches: two batches with one MatrixKey
// prepare once; another ordering, balance flag or matrix key is another
// preparation; keyless jobs are never cached. The served result is the
// direct library call's, and the registry series, the snapshot and the
// prepare spans tell the same story.
func TestPreparedProblemReusedAcrossBatches(t *testing.T) {
	a := testMatrix()
	reg := obs.NewRegistry()
	s := New(Config{Pool: NewPool(PoolConfig{Size: 1, Devices: 2}), MaxBatch: 1, Registry: reg})
	s.Start()
	defer s.Drain(context.Background())

	spec := testSpec(a, matgen.RHS(a.Rows, 1), "lap6")
	j1, _ := solveNow(t, s, spec)
	wantPrepared(t, s, 0, 1, 0)
	spec.B = matgen.RHS(a.Rows, 2)
	j2, served := solveNow(t, s, spec)
	wantPrepared(t, s, 1, 1, 0)
	if got := slices.Concat(prepareSpans(t, j1), prepareSpans(t, j2)); !slices.Equal(got, []string{"miss", "hit"}) {
		t.Fatalf("prepare spans report %v, want [miss hit]", got)
	}

	p, err := core.NewProblem(gpu.NewContext(2, gpu.M2090()), a, spec.B, spec.Ordering, spec.Balance)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.CAGMRES(p, spec.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if served.Iters != direct.Iters || !slices.Equal(served.X, direct.X) ||
		served.Stats.TotalTime() != direct.Stats.TotalTime() {
		t.Fatalf("served solve on a cached preparation: iters %d, direct call %d", served.Iters, direct.Iters)
	}

	// A GMRES job shares the preparation (its depth-1 distribution joins
	// the entry's plan); other orderings, balance flags and keys do not.
	gm := spec
	gm.Solver, gm.Opts = "gmres", core.Options{M: 20, Tol: 1e-8}
	solveNow(t, s, gm)
	wantPrepared(t, s, 2, 1, 0)
	for i, vary := range []func(*Spec){
		func(sp *Spec) { sp.Ordering = core.RCM },
		func(sp *Spec) { sp.Balance = false },
		func(sp *Spec) { sp.MatrixKey = "lap6-again" },
		func(sp *Spec) { sp.MatrixKey = "" },
		func(sp *Spec) { sp.MatrixKey = "" },
	} {
		other := spec
		vary(&other)
		solveNow(t, s, other)
		wantPrepared(t, s, 2, uint64(2+i), 0)
	}
	if got := s.prepared.size(); got != 4 {
		t.Fatalf("cache holds %d preparations, want 4", got)
	}

	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`sched_prepared_problems_total{result="hit"} 2`,
		`sched_prepared_problems_total{result="miss"} 6`,
		`sched_prepared_problems_total{result="evict"} 0`,
	} {
		if !strings.Contains(text.String(), line) {
			t.Fatalf("/metrics lacks %q", line)
		}
	}
}

// TestPreparedProblemKeyedByDeviceCount: the same spec on a pool of
// another device count is another preparation (the layout differs).
func TestPreparedProblemKeyedByDeviceCount(t *testing.T) {
	a := testMatrix()
	spec := testSpec(a, matgen.RHS(a.Rows, 1), "lap6")
	c := newPreparedCache(nil)
	for _, devices := range []int{2, 3, 2, 3} {
		p, _, err := c.problem(gpu.NewContext(devices, gpu.M2090()), &spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Layout.NumDevices(); got != devices {
			t.Fatalf("preparation for %d devices laid out for %d", devices, got)
		}
	}
	if h, m := c.hits.Value(), c.misses.Value(); h != 2 || m != 2 {
		t.Fatalf("hit/miss = %v/%v, want 2/2", h, m)
	}
}

// TestPreparedCacheIsBounded: the LRU never exceeds its size, evicts the
// least recently used key, and counts what it drops.
func TestPreparedCacheIsBounded(t *testing.T) {
	a := testMatrix()
	lease := gpu.NewContext(2, gpu.M2090())
	c := newPreparedCache(nil)
	get := func(key string) bool {
		spec := testSpec(a, nil, key)
		spec.Ordering = core.Natural // cheap preparations
		_, hit, err := c.problem(lease, &spec)
		if err != nil {
			t.Fatal(err)
		}
		if c.size() > CacheSize {
			t.Fatalf("cache grew to %d entries, bound is %d", c.size(), CacheSize)
		}
		return hit
	}
	for i := 0; i < CacheSize; i++ {
		get(fmt.Sprint("k", i))
	}
	if !get("k0") { // k0 becomes the most recently used
		t.Fatal("k0 missing from a cache that is exactly full")
	}
	get("one-more") // evicts k1, the least recently used
	if !get("k0") || get("k1") {
		t.Fatal("the LRU did not evict the least recently used key")
	}
	if got := c.evictions.Value(); got != 2 { // k1, then k2 for k1's return
		t.Fatalf("evictions = %v, want 2", got)
	}
}

// TestLeaseFaultEvictsPreparedProblem: a lease that ends in a retryable
// fault drops the preparation it used, so the re-queued job prepares
// again on its next lease.
func TestLeaseFaultEvictsPreparedProblem(t *testing.T) {
	a := testMatrix()
	pool := NewPool(PoolConfig{Size: 1, Devices: 2,
		FaultPlans: []gpu.FaultPlan{{Seed: 1, TransferFaultProb: 1, MaxTransferFaults: 4}}})
	s := New(Config{Pool: pool, QueueDepth: 8, MaxBatch: 1})
	s.Start()
	defer s.Drain(context.Background())

	j, res := solveNow(t, s, testSpec(a, matgen.RHS(a.Rows, 1), "lap6"))
	if !res.Converged || j.Attempts() != 2 {
		t.Fatalf("attempts %d converged %v, want a faulted lease then a clean one", j.Attempts(), res.Converged)
	}
	wantPrepared(t, s, 0, 2, 1)
	if got := prepareSpans(t, j); !slices.Equal(got, []string{"miss", "miss"}) {
		t.Fatalf("prepare spans report %v, want [miss miss]", got)
	}
}

// TestWorkersShareOnePreparedProblem: two workers hold the same cache
// entry at once — same key, different right-hand sides, run under -race —
// prepare it once between them, and every job gets the solution of its
// own right-hand side.
func TestWorkersShareOnePreparedProblem(t *testing.T) {
	a := testMatrix()
	s := New(Config{Pool: NewPool(PoolConfig{Size: 2, Devices: 2}), QueueDepth: 32, MaxBatch: 1})
	const jobs = 12
	queued := make([]*Job, jobs)
	for i := range queued {
		j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, i), "lap6"), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		queued[i] = j
	}
	s.Start()
	defer s.Drain(context.Background())
	for i, j := range queued {
		res := waitJob(t, j)
		b := matgen.RHS(a.Rows, i)
		if rel := core.ResidualNorm(a, b, res.X); !res.Converged || rel > 1e-6 {
			t.Fatalf("job %d: converged %v, residual against its own right-hand side %v", i, res.Converged, rel)
		}
	}
	wantPrepared(t, s, jobs-1, 1, 0)
}
