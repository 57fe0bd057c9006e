package sched

import (
	"context"
	"runtime"
	"testing"
	"time"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/matgen"
	"cagmres/internal/profile"
)

func TestPoolAcquireRelease(t *testing.T) {
	p := NewPool(PoolConfig{Size: 2, Devices: 3})
	if p.Size() != 2 || p.devices != 3 {
		t.Fatalf("pool shape %d/%d, want 2/3", p.Size(), p.devices)
	}
	c1, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", p.InUse())
	}

	// Third acquire must block until a release, and must honor context
	// cancellation while blocked.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx); err == nil {
		t.Fatalf("acquire on an empty pool did not respect the context")
	}

	got := make(chan *gpu.Context)
	go func() {
		c, err := p.Acquire(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	p.Release(c1)
	select {
	case c := <-got:
		if c != c1 {
			t.Fatalf("blocked acquire got a different context")
		}
		p.Release(c)
	case <-time.After(5 * time.Second):
		t.Fatalf("blocked acquire never woke up")
	}
	p.Release(c2)
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d after all releases", p.InUse())
	}
}

// TestPooledReuseNoLeak is the pooled-reuse leak regression of the
// issue: one context leased for many sequential solves must not
// accumulate worker goroutines, and every release must hand the next
// lease a clean ledger.
func TestPooledReuseNoLeak(t *testing.T) {
	a := testMatrix()
	p := NewPool(PoolConfig{Size: 1, Devices: 3})
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := ctx.Stats().TotalTime(); got != 0 {
			t.Fatalf("lease %d started with a dirty ledger: %v modeled seconds", i, got)
		}
		prob, err := core.NewProblem(ctx, a, matgen.RHS(a.Rows, i), core.KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CAGMRES(prob, core.Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR"})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("solve %d unconverged", i)
		}
		if res.Stats.TotalTime() <= 0 {
			t.Fatalf("solve %d charged no modeled time", i)
		}
		p.Release(ctx)
	}
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines accumulated across pooled solves: %d before, %d after",
		before, runtime.NumGoroutine())
}

// TestPoolRestoresItsProfile serves solves re-targeted at a per-request
// machine (core.Options.Profile) from a pool configured with another
// non-default one. Both ways a context comes back — a Repair readmission
// after a device death and a healthy Release — must hand the next lease
// the pool's own profile.
func TestPoolRestoresItsProfile(t *testing.T) {
	a := testMatrix()
	a100, h100 := profile.A100PCIe(), profile.H100NVLink()
	p := NewPool(PoolConfig{Size: 1, Devices: 2, Profile: a100, Repair: true,
		FaultPlans: []gpu.FaultPlan{{Deaths: []gpu.DeviceDeath{{Device: 0, At: 0}}}}})
	solve := func(seed int) *gpu.Context {
		ctx, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := ctx.Profile(); got != a100 {
			t.Fatalf("lease %d starts on %q, want %q", seed, got.Name, a100.Name)
		}
		prob, err := core.NewProblem(ctx, a, matgen.RHS(a.Rows, seed), core.KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.CAGMRES(prob, core.Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Profile: &h100})
		if err != nil || !res.Converged {
			t.Fatalf("solve %d: converged=%v err=%v", seed, res != nil && res.Converged, err)
		}
		if got := ctx.Profile(); got != h100 {
			t.Fatalf("solve %d ran on %q, want the per-request %q", seed, got.Name, h100.Name)
		}
		return ctx
	}

	// The planned death fires in the first solve: Release evicts the
	// context, repairs it and readmits it.
	ctx := solve(1)
	if len(ctx.DeadDevices()) == 0 {
		t.Fatal("the planned device death did not fire")
	}
	p.Release(ctx)
	if got := ctx.Profile(); got != a100 || p.Healthy() != 1 {
		t.Fatalf("readmitted context on %q (healthy %d), want %q", got.Name, p.Healthy(), a100.Name)
	}

	// The repaired context serves the second solve; a healthy Release.
	ctx = solve(2)
	p.Release(ctx)
	if got := ctx.Profile(); got != a100 {
		t.Fatalf("released context on %q, want %q", got.Name, a100.Name)
	}
}
