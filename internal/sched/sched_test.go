package sched

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/obs"
	"cagmres/internal/sparse"
)

// testMatrix returns a small deterministic nonsymmetric system.
func testMatrix() *sparse.CSR {
	return matgen.Laplace3D(6, 6, 6, 0.2)
}

func testSpec(a *sparse.CSR, b []float64, key string) Spec {
	return Spec{
		Matrix:    a,
		MatrixKey: key,
		B:         b,
		Solver:    "ca",
		Ordering:  core.KWay,
		Balance:   true,
		Opts:      core.Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"},
	}
}

func waitJob(t *testing.T, j *Job) *core.Result {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatalf("job %s failed: %v", j.ID, err)
	}
	return res
}

// TestDeterministicLoad is the tier-1 load test: N concurrent solve
// jobs through a 2-context pool, staged while the workers are stopped so
// the dispatch order is a pure function of the queue discipline. It
// asserts FIFO-within-priority dispatch, that deadline expiry yields
// Canceled results, and that a full queue rejects rather than blocks.
// Deadlines run on a manual clock, so the expiry is fired, not slept for.
func TestDeterministicLoad(t *testing.T) {
	a := testMatrix()
	pool := NewPool(PoolConfig{Size: 2, Devices: 2})
	clk := newManualClock()
	s := New(Config{Pool: pool, QueueDepth: 16, MaxBatch: 1, Clock: clk})

	// Mixed priorities, distinct matrix keys (no batching): expected
	// dispatch order is priority-descending, FIFO within a class.
	prios := []int{0, 1, 0, 2, 1, 0}
	jobs := make([]*Job, len(prios))
	for i, pr := range prios {
		spec := testSpec(a, matgen.RHS(a.Rows, i), "")
		j, err := s.Submit(context.Background(), spec, pr, 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}

	// A job whose deadline passed while queued must come back Canceled
	// without consuming device time.
	expired, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 99), ""), 3, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	clk.fire() // the 1ns deadline expires before Start

	s.Start()
	for _, j := range jobs {
		res := waitJob(t, j)
		if !res.Converged {
			t.Fatalf("job %s did not converge: relres %v", j.ID, res.RelRes)
		}
	}
	res := waitJob(t, expired)
	if !res.Canceled {
		t.Fatalf("expired-deadline job returned %+v, want Canceled", res)
	}
	if expired.State() != StateCanceled {
		t.Fatalf("expired-deadline job state %q, want %q", expired.State(), StateCanceled)
	}

	// Dispatch order: sort submissions by (priority desc, submit order)
	// and compare against the recorded dispatch sequence. The expired
	// job has priority 3, so it must have been dispatched first.
	type sub struct {
		j   *Job
		pri int
		ord int
	}
	subs := []sub{{expired, 3, len(prios)}}
	for i, j := range jobs {
		subs = append(subs, sub{j, prios[i], i})
	}
	sort.SliceStable(subs, func(i, k int) bool {
		if subs[i].pri != subs[k].pri {
			return subs[i].pri > subs[k].pri
		}
		return subs[i].ord < subs[k].ord
	})
	for want, sb := range subs {
		sb.j.mu.Lock()
		got := sb.j.dispatchSeq
		sb.j.mu.Unlock()
		if got != uint64(want) {
			t.Errorf("job %s (priority %d, submit #%d): dispatched %d-th, want %d-th",
				sb.j.ID, sb.pri, sb.ord, got, want)
		}
	}

	// Backpressure: stage a fresh scheduler with a tiny queue and no
	// workers; the overflow submission must reject immediately.
	s2 := New(Config{Pool: NewPool(PoolConfig{Size: 1, Devices: 1}), QueueDepth: 2, MaxBatch: 1})
	for i := 0; i < 2; i++ {
		if _, err := s2.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, i), ""), 0, 0); err != nil {
			t.Fatalf("submit %d within depth: %v", i, err)
		}
	}
	rejectStart := time.Now()
	_, err = s2.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 9), ""), 0, 0)
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("overflow submit returned %v, want QueueFullError", err)
	}
	if full.RetryAfter <= 0 {
		t.Fatalf("rejection carries no retry-after hint: %+v", full)
	}
	if time.Since(rejectStart) > time.Second {
		t.Fatalf("rejection blocked for %v", time.Since(rejectStart))
	}
	if snap := s2.Snapshot(); snap.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", snap.Rejected)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 0), ""), 0, 0); err != ErrDraining {
		t.Fatalf("post-drain submit returned %v, want ErrDraining", err)
	}
}

// TestBatchingSharesLease groups four compatible jobs (same matrix and
// options, different right-hand sides) into one device lease and checks
// each result against a direct library call on the same pool shape.
func TestBatchingSharesLease(t *testing.T) {
	a := testMatrix()
	reg := obs.NewRegistry()
	pool := NewPool(PoolConfig{Size: 1, Devices: 2})
	s := New(Config{Pool: pool, QueueDepth: 16, MaxBatch: 8, Registry: reg})

	const n = 4
	jobs := make([]*Job, n)
	for i := range jobs {
		spec := testSpec(a, matgen.RHS(a.Rows, i), "lap6")
		j, err := s.Submit(context.Background(), spec, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	s.Start()
	for i, j := range jobs {
		res := waitJob(t, j)
		if !res.Converged {
			t.Fatalf("job %d unconverged", i)
		}
		// Direct library call with an identical context shape: the
		// scheduler result must match bit for bit.
		ctx := gpu.NewContext(2, gpu.M2090())
		p, err := core.NewProblem(ctx, a, matgen.RHS(a.Rows, i), core.KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.CAGMRES(p, core.Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"})
		if err != nil {
			t.Fatal(err)
		}
		for k := range ref.X {
			if ref.X[k] != res.X[k] {
				t.Fatalf("job %d: scheduler X[%d]=%v, direct %v", i, k, res.X[k], ref.X[k])
			}
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Leases != 1 {
		t.Fatalf("4 compatible jobs took %d leases, want 1", snap.Leases)
	}
	if snap.Batched != n {
		t.Fatalf("batched counter = %d, want %d", snap.Batched, n)
	}

	// The registry must export every scheduler family, and lint clean.
	var buf []byte
	{
		w := &writerBuf{}
		if err := reg.WritePrometheus(w); err != nil {
			t.Fatal(err)
		}
		buf = w.b
	}
	if err := obs.LintPrometheus(buf); err != nil {
		t.Fatalf("scheduler metrics fail lint: %v", err)
	}
	if err := obs.RequireFamilies(buf, []string{
		"sched_queue_depth", "sched_queue_wait_seconds", "sched_service_seconds",
		"sched_jobs_total", "sched_rejections_total", "sched_pool_in_use",
		"sched_pool_size", "sched_leases_total", "sched_lease_seconds_total",
		"sched_batch_jobs",
	}); err != nil {
		t.Fatal(err)
	}
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// TestMidSolveDeadline runs a deliberately hopeless solve (tight
// tolerance, generous restart budget) under a short deadline and checks
// the scheduler surfaces the solver's best-so-far Canceled result.
func TestMidSolveDeadline(t *testing.T) {
	a := testMatrix()
	pool := NewPool(PoolConfig{Size: 1, Devices: 2})
	s := New(Config{Pool: pool, QueueDepth: 4, MaxBatch: 1})
	s.Start()
	spec := testSpec(a, matgen.RHS(a.Rows, 0), "")
	spec.Opts.Tol = 1e-30 // unreachable
	spec.Opts.MaxRestarts = 1 << 20
	j, err := s.Submit(context.Background(), spec, 0, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	if !res.Canceled {
		t.Fatalf("deadline-bound hopeless solve was not canceled: %+v", res)
	}
	if j.State() != StateCanceled {
		t.Fatalf("state %q, want canceled", j.State())
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainLeavesNoGoroutines drains a busy scheduler and verifies the
// worker goroutines are gone.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	a := testMatrix()
	before := runtime.NumGoroutine()
	pool := NewPool(PoolConfig{Size: 2, Devices: 2})
	s := New(Config{Pool: pool, QueueDepth: 32, MaxBatch: 4})
	s.Start()
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, i), "lap6"), i%2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after drain: %d before, %d after", before, runtime.NumGoroutine())
}

// TestDrainTimeoutCancelsJobs drains with an expired context while slow
// jobs are queued: every job must still reach a terminal state.
func TestDrainTimeoutCancelsJobs(t *testing.T) {
	a := testMatrix()
	pool := NewPool(PoolConfig{Size: 1, Devices: 2})
	s := New(Config{Pool: pool, QueueDepth: 32, MaxBatch: 1})
	s.Start()
	jobs := make([]*Job, 4)
	for i := range jobs {
		spec := testSpec(a, matgen.RHS(a.Rows, i), "")
		spec.Opts.Tol = 1e-30
		spec.Opts.MaxRestarts = 1 << 20
		j, err := s.Submit(context.Background(), spec, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatalf("hopeless jobs drained cleanly before the timeout?")
	}
	for _, j := range jobs {
		res := waitJob(t, j)
		if !res.Canceled {
			t.Fatalf("job %s survived a forced drain: %+v", j.ID, res)
		}
	}
}

// TestJobRetention evicts the oldest terminal jobs beyond the cap.
func TestJobRetention(t *testing.T) {
	a := matgen.Laplace3D(4, 4, 4, 0.2)
	pool := NewPool(PoolConfig{Size: 1, Devices: 1})
	s := New(Config{Pool: pool, QueueDepth: 32, MaxBatch: 1, RetainJobs: 2})
	s.Start()
	var ids []string
	for i := 0; i < 4; i++ {
		spec := testSpec(a, matgen.RHS(a.Rows, i), "")
		j, err := s.Submit(context.Background(), spec, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		ids = append(ids, j.ID)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatalf("oldest job %s still resolvable beyond RetainJobs", ids[0])
	}
	if _, ok := s.Job(ids[3]); !ok {
		t.Fatalf("newest job %s evicted", ids[3])
	}
}
