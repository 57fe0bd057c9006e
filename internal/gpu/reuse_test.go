package gpu

import (
	"runtime"
	"testing"
	"time"
)

// TestContextReuseNoGoroutineLeak is the pooled-reuse regression at the
// gpu layer: a long-lived Context cycled through many RunAll/ResetStats
// rounds — the lifecycle the sched.Pool imposes — must neither
// accumulate goroutines nor carry ledger state across resets.
func TestContextReuseNoGoroutineLeak(t *testing.T) {
	ctx := NewContext(3, M2090())
	runtime.GC()
	before := runtime.NumGoroutine()

	for lease := 0; lease < 50; lease++ {
		if got := ctx.Stats().TotalTime(); got != 0 {
			t.Fatalf("lease %d inherited %v modeled seconds from the previous user", lease, got)
		}
		// A representative lease: a few kernel+communication rounds with
		// real per-device goroutines.
		for round := 0; round < 4; round++ {
			work := make([]float64, ctx.NumDevices)
			ctx.RunAll(func(d int) {
				sum := 0.0
				for i := 0; i < 1000; i++ {
					sum += float64(i ^ d)
				}
				work[d] = sum
			})
			for d, w := range work {
				if w == 0 {
					t.Fatalf("device %d did no work", d)
				}
			}
			ctx.Launch("spmv", every(Work{Flops: 1e6, Bytes: 8e6}))
			ctx.Gather("dot", 1, Elem64)
		}
		if ctx.Stats().TotalTime() <= 0 {
			t.Fatalf("lease %d charged no modeled time", lease)
		}
		ctx.ResetStats()
	}

	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines accumulated across context reuse: %d before, %d after",
		before, runtime.NumGoroutine())
}

// TestResetStatsPreservesTracing asserts the reuse contract the pool
// relies on: ResetStats clears the ledger but keeps trace recording
// enabled at the same capacity.
func TestResetStatsPreservesTracing(t *testing.T) {
	ctx := NewContext(2, M2090())
	ctx.Stats().EnableTrace(16)
	ctx.Launch("warm", every(Work{Flops: 1e6}))
	if len(ctx.Stats().Trace()) == 0 {
		t.Fatalf("tracing enabled but no events recorded")
	}
	ctx.ResetStats()
	if got := ctx.Stats().TotalTime(); got != 0 {
		t.Fatalf("ledger survived reset: %v seconds", got)
	}
	if len(ctx.Stats().Trace()) != 0 {
		t.Fatalf("trace events survived reset")
	}
	ctx.Launch("after", every(Work{Flops: 1e6}))
	if len(ctx.Stats().Trace()) == 0 {
		t.Fatalf("reset disabled trace recording")
	}
}
