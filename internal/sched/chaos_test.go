package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
	"cagmres/internal/matgen"
	"cagmres/internal/ortho"
)

// waitSnapshot polls the scheduler until cond holds or the deadline
// passes (Release — and so eviction — happens after job completion, on
// the worker goroutine).
func waitSnapshot(t *testing.T, s *Scheduler, what string, cond func(Snapshot) bool) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := s.Snapshot()
		if cond(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobRequeuedAfterTransferExhaustion arms the single pooled context
// with a transfer-fault plan that exhausts the retry policy exactly once
// (four faults, the policy's attempt budget, then the MaxTransferFaults
// cap dries the stream up). The first lease fails with a TransferError;
// the scheduler must re-queue the job and the second lease must succeed.
func TestJobRequeuedAfterTransferExhaustion(t *testing.T) {
	a := testMatrix()
	pool := NewPool(PoolConfig{Size: 1, Devices: 2,
		FaultPlans: []gpu.FaultPlan{{Seed: 1, TransferFaultProb: 1, MaxTransferFaults: 4}}})
	s := New(Config{Pool: pool, QueueDepth: 8, MaxBatch: 1})
	s.Start()

	j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 1), ""), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	if !res.Converged {
		t.Fatalf("requeued job did not converge: %+v", res)
	}
	if got := j.Attempts(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (one faulted lease, one clean)", got)
	}
	snap := s.Snapshot()
	if snap.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", snap.Requeues)
	}
	if snap.TransferFaults != 4 {
		t.Fatalf("transfer faults = %d, want 4", snap.TransferFaults)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDeviceDeathHealsThenPoolDegrades kills one of the two devices of
// the only pooled context at virtual time zero: the solve must heal
// (re-partition onto the survivor and converge), the release probe must
// evict the damaged context, and with repair disabled the pool is then
// exhausted — later jobs fail with ErrPoolExhausted and the snapshot
// reports degradation.
func TestDeviceDeathHealsThenPoolDegrades(t *testing.T) {
	a := testMatrix()
	pool := NewPool(PoolConfig{Size: 1, Devices: 2,
		FaultPlans: []gpu.FaultPlan{{Deaths: []gpu.DeviceDeath{{Device: 0, At: 0}}}}})
	s := New(Config{Pool: pool, QueueDepth: 8, MaxBatch: 1})
	s.Start()

	j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 2), ""), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	if !res.Converged {
		t.Fatalf("healed job did not converge: %+v", res)
	}
	if res.Faults == nil || res.Faults.Repartitions < 1 {
		t.Fatalf("no repartition reported: %+v", res.Faults)
	}

	snap := waitSnapshot(t, s, "eviction", func(sn Snapshot) bool { return sn.Evictions == 1 })
	if snap.PoolHealthy != 0 || !snap.Degraded {
		t.Fatalf("pool not degraded after eviction: %+v", snap)
	}
	if snap.DevicesLost != 1 {
		t.Fatalf("devices lost = %d, want 1", snap.DevicesLost)
	}

	j2, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 3), ""), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if _, err := j2.Result(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("job on an exhausted pool: %v, want ErrPoolExhausted", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}

// TestRepairReadmitsEvictedContext is the same death scenario with
// repair enabled: the evicted context is reset and readmitted, so a
// second job runs on it fault-free (the consumed death does not fire
// again) and the pool never degrades.
func TestRepairReadmitsEvictedContext(t *testing.T) {
	a := testMatrix()
	pool := NewPool(PoolConfig{Size: 1, Devices: 2,
		FaultPlans: []gpu.FaultPlan{{Deaths: []gpu.DeviceDeath{{Device: 0, At: 0}}}},
		Repair:     true})
	s := New(Config{Pool: pool, QueueDepth: 8, MaxBatch: 1})
	s.Start()

	j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 4), ""), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := waitJob(t, j); !res.Converged {
		t.Fatalf("first job did not converge: %+v", res)
	}
	snap := waitSnapshot(t, s, "readmission", func(sn Snapshot) bool { return sn.Readmissions == 1 })
	if snap.Evictions != 1 || snap.PoolHealthy != 1 || snap.Degraded {
		t.Fatalf("repaired pool in wrong state: %+v", snap)
	}

	j2, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, 5), ""), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res2 := waitJob(t, j2)
	if !res2.Converged {
		t.Fatalf("job on repaired context did not converge: %+v", res2)
	}
	if res2.Faults != nil && len(res2.Faults.DevicesLost) > 0 {
		t.Fatalf("consumed death fired again: %+v", res2.Faults)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// wedgeTSQR blocks inside the TSQR factorization until released — a
// stand-in for lease code wedged somewhere that never observes
// cancellation. entered is closed when the first factorization arrives,
// so a test can wait for the wedge to hold before it acts.
type wedgeTSQR struct {
	entered chan struct{}
	once    *sync.Once
	release chan struct{}
	inner   ortho.TSQR
}

func (w wedgeTSQR) Name() string { return "wedge" }

func (w wedgeTSQR) Factor(ctx *gpu.Context, p []*la.Dense, phase string) (*la.Dense, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return w.inner.Factor(ctx, p, phase)
}

// TestDrainGraceAbandonsWedgedLease wedges the only lease inside a
// blocking TSQR, so cancellation never takes effect. Drain with a grace
// period must give up, name the abandoned job, and return — instead of
// hanging forever (the pre-grace behavior, and the daemon's SIGTERM
// hang). The grace timer runs on a manual clock; the wedge is a real
// block. The test then releases the wedge and verifies the worker
// goroutines unwind.
func TestDrainGraceAbandonsWedgedLease(t *testing.T) {
	a := testMatrix()
	before := runtime.NumGoroutine()
	inner, err := ortho.ByName("CholQR")
	if err != nil {
		t.Fatal(err)
	}
	wedge := wedgeTSQR{entered: make(chan struct{}), once: new(sync.Once), release: make(chan struct{}), inner: inner}

	pool := NewPool(PoolConfig{Size: 1, Devices: 2})
	clk := newManualClock()
	s := New(Config{Pool: pool, QueueDepth: 8, MaxBatch: 1, DrainGrace: 50 * time.Millisecond, Clock: clk})
	s.Start()
	spec := testSpec(a, matgen.RHS(a.Rows, 6), "")
	spec.Opts.OrthoImpl = wedge
	j, err := s.Submit(context.Background(), spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The job reaches the wedge only after dispatch, preparation and the
	// CA seed cycle; draining before it is there cancels it instead.
	select {
	case <-wedge.entered:
	case <-time.After(60 * time.Second):
		t.Fatal("the job never reached the wedged TSQR")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the drain deadline has already passed
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	clk.fire() // the grace runs out
	var dt *DrainTimeoutError
	if err := <-drained; !errors.As(err, &dt) {
		t.Fatalf("Drain = %v, want *DrainTimeoutError", err)
	}
	if len(dt.Abandoned) != 1 || dt.Abandoned[0] != j.ID {
		t.Fatalf("abandoned = %v, want [%s]", dt.Abandoned, j.ID)
	}

	close(wedge.release)
	<-j.Done() // the released job still reaches a terminal state
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after released wedge: %d before, %d after",
		before, runtime.NumGoroutine())
}

// TestLeaseTimeoutCancelsStuckBatch bounds a lease with LeaseTimeout: a
// hopeless job (tolerance it can never reach) must be canceled at the
// solver's next restart boundary instead of holding the context forever.
func TestLeaseTimeoutCancelsStuckBatch(t *testing.T) {
	a := testMatrix()
	pool := NewPool(PoolConfig{Size: 1, Devices: 2})
	s := New(Config{Pool: pool, QueueDepth: 8, MaxBatch: 1, LeaseTimeout: 30 * time.Millisecond})
	s.Start()
	spec := testSpec(a, matgen.RHS(a.Rows, 7), "")
	spec.Opts.Tol = 1e-30
	spec.Opts.MaxRestarts = 1 << 20
	j, err := s.Submit(context.Background(), spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	if !res.Canceled {
		t.Fatalf("stuck job was not canceled: %+v", res)
	}
	if snap := s.Snapshot(); snap.LeaseTimeouts != 1 {
		t.Fatalf("lease timeouts = %d, want 1", snap.LeaseTimeouts)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestChaosLoadLeavesNoGoroutines pushes a mixed load through a pool
// with fault plans on two of three contexts (one death with repair, one
// transfer storm) and verifies that every armed fault was observed and
// that after drain no goroutine survives — the regression test for leaks
// on the retry/eviction paths. The pool hands out contexts in order, so
// the first two leases meet both plans.
func TestChaosLoadLeavesNoGoroutines(t *testing.T) {
	a := testMatrix()
	before := runtime.NumGoroutine()
	pool := NewPool(PoolConfig{Size: 3, Devices: 2,
		FaultPlans: []gpu.FaultPlan{
			{Deaths: []gpu.DeviceDeath{{Device: 1, At: 0}}},
			{Seed: 2, TransferFaultProb: 1, MaxTransferFaults: 4},
		},
		Repair: true})
	s := New(Config{Pool: pool, QueueDepth: 32, MaxBatch: 4, LeaseTimeout: 5 * time.Second})
	s.Start()
	jobs := make([]*Job, 10)
	for i := range jobs {
		j, err := s.Submit(context.Background(), testSpec(a, matgen.RHS(a.Rows, i), "lap6"), i%3, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		<-j.Done()
		if st := j.State(); st != StateDone && st != StateFailed && st != StateCanceled {
			t.Fatalf("job %s in non-terminal state %q", j.ID, st)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.DevicesLost < 1 || snap.TransferFaults < 1 || snap.Readmissions < 1 {
		t.Fatalf("armed faults not observed: devices lost %d, transfer faults %d, readmissions %d",
			snap.DevicesLost, snap.TransferFaults, snap.Readmissions)
	}
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked after chaos load: %d before, %d after",
		before, runtime.NumGoroutine())
}
