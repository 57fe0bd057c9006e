package gpu

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestEnableTraceRearmMidTrace(t *testing.T) {
	// Regression: EnableTrace used to reset the ring but not the sequence
	// counter, and record indexed the ring by Seq%cap — so after a mid-run
	// re-arm the wrap slot no longer pointed at the oldest entry and the
	// ring dropped the wrong events. The dedicated ring cursor keeps the
	// last min(cap, count) events regardless of where Seq stands.
	ctx := NewContext(1, M2090())
	ctx.Stats().EnableTrace(5)
	for i := 0; i < 7; i++ { // wrap once: Seq is now past the capacity
		ctx.commRound("warm", dirD2H, []int{i}, Elem64, nil)
	}
	ctx.Stats().EnableTrace(5) // re-arm mid-trace
	for i := 0; i < 6; i++ {   // one past capacity again
		ctx.commRound("p", dirD2H, []int{100 + i}, Elem64, nil)
	}
	ev := ctx.Stats().Trace()
	if len(ev) != 5 {
		t.Fatalf("re-armed ring kept %d events, want 5", len(ev))
	}
	for i, e := range ev {
		// The last 5 of the 6 post-re-arm events, contiguous and in order.
		if e.Phase != "p" || e.Bytes != 100+1+i {
			t.Fatalf("event %d after re-arm: %+v (want phase p, bytes %d)", i, e, 100+1+i)
		}
		if i > 0 && e.Seq != ev[i-1].Seq+1 {
			t.Fatalf("non-contiguous Seq after re-arm: %+v", ev)
		}
	}
}

func TestPerDeviceAttribution(t *testing.T) {
	// A kernel launch charges each device its own modeled time; the phase
	// aggregate advances by the maximum. Comm rounds charge every
	// participating device the full round time and its own byte share.
	model := M2090().Model
	ctx := NewContext(3, M2090())
	work := []Work{
		{Flops: 1e9, Bytes: 0}, // compute bound
		{Flops: 4e9, Bytes: 0}, // 4x slower: the straggler
		{Flops: 2e9, Bytes: 0},
	}
	ctx.DeviceKernelOn("tsqr", work)
	for d, w := range work {
		want := w.Flops/(model.DeviceGflops*1e9) + model.KernelLaunch
		got := ctx.Stats().DevicePhase(d, "tsqr")
		if got.DeviceTime != want {
			t.Fatalf("device %d time %v, want %v", d, got.DeviceTime, want)
		}
		if got.DeviceFlops != w.Flops || got.Kernels != 1 {
			t.Fatalf("device %d stats %+v", d, got)
		}
	}
	agg := ctx.Stats().Phase("tsqr")
	straggler := ctx.Stats().DevicePhase(1, "tsqr").DeviceTime
	if agg.DeviceTime != straggler {
		t.Fatalf("aggregate %v, want straggler %v", agg.DeviceTime, straggler)
	}

	bytes := []int{100, 200, 300}
	ctx.commRound("mpk", dirD2H, bytes, Elem64, nil)
	roundT := ctx.roundTime(bytes)
	for d, b := range bytes {
		got := ctx.Stats().DevicePhase(d, "mpk")
		if got.BytesD2H != b || got.CommTime != roundT || got.Rounds != 1 || got.Messages != 1 {
			t.Fatalf("device %d comm stats %+v", d, got)
		}
	}
	if n := ctx.Stats().TrackedDevices(); n != 3 {
		t.Fatalf("TrackedDevices = %d, want 3", n)
	}
}

func TestTraceRingWraparoundProperty(t *testing.T) {
	// For any capacity and event count, the ring keeps exactly the last
	// min(cap, count) events, returned in ascending contiguous Seq order.
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		capacity := 1 + rng.Intn(8)
		count := rng.Intn(40)
		ctx := NewContext(1, M2090())
		ctx.Stats().EnableTrace(capacity)
		for i := 0; i < count; i++ {
			ctx.commRound("p", dirD2H, []int{i}, Elem64, nil)
		}
		ev := ctx.Stats().Trace()
		wantLen := count
		if wantLen > capacity {
			wantLen = capacity
		}
		if len(ev) != wantLen {
			t.Fatalf("cap=%d count=%d: got %d events", capacity, count, len(ev))
		}
		for i, e := range ev {
			wantSeq := count - wantLen + i
			if e.Seq != wantSeq {
				t.Fatalf("cap=%d count=%d: event %d has seq %d, want %d", capacity, count, i, e.Seq, wantSeq)
			}
			if e.Bytes != wantSeq {
				t.Fatalf("cap=%d count=%d: event %d payload %d, want %d", capacity, count, i, e.Bytes, wantSeq)
			}
		}
	}
}

func TestRoundTimeSingleNodeIgnoresInterconnect(t *testing.T) {
	// Without DevicesPerNode the profile is one node and the fabric leg
	// never engages, even when fabric constants are set.
	p := M2090()
	p.Cluster.Fabric = Fabric{Latency: 1, Bandwidth: 1} // absurd, must be ignored
	ctx := NewContext(4, p)
	got := ctx.roundTime([]int{100, 200, 300, 400})
	want := p.Model.Latency + 1000/p.Model.Bandwidth
	if got != want {
		t.Fatalf("single-node round time %v, want %v", got, want)
	}
}

func TestRoundTimeAllDevicesWithinNode(t *testing.T) {
	// DevicesPerNode >= device count: everything is local, the fabric leg
	// must not fire even though the profile is clustered.
	p := M2090()
	p.Cluster = Cluster{DevicesPerNode: 8, Fabric: Fabric{Latency: 25e-6, Bandwidth: 3e9}}
	ctx := NewContext(4, p)
	got := ctx.roundTime([]int{10, 20, 30, 40})
	want := p.Model.Latency + 100/p.Model.Bandwidth
	if got != want {
		t.Fatalf("intra-node round time %v, want %v", got, want)
	}
}

func TestResetStatsPreservesTraceCapacity(t *testing.T) {
	ctx := NewContext(1, M2090())
	ctx.Stats().EnableTrace(3)
	for i := 0; i < 5; i++ {
		ctx.commRound("before", dirD2H, []int{i}, Elem64, nil)
	}
	ctx.ResetStats()
	if got := len(ctx.Stats().Trace()); got != 0 {
		t.Fatalf("reset kept %d events", got)
	}
	// Recording still works and still wraps at the same capacity.
	for i := 0; i < 7; i++ {
		ctx.commRound("after", dirD2H, []int{i}, Elem64, nil)
	}
	ev := ctx.Stats().Trace()
	if len(ev) != 3 {
		t.Fatalf("post-reset capacity changed: %d events", len(ev))
	}
	for i, e := range ev {
		if e.Seq != 4+i || e.Phase != "after" {
			t.Fatalf("post-reset trace wrong: %+v", ev)
		}
	}
	if ctx.Stats().Phase("before").Rounds != 0 {
		t.Fatal("reset kept counters")
	}
}

func TestResetStatsWithoutTraceStaysDisabled(t *testing.T) {
	ctx := NewContext(1, M2090())
	ctx.ResetStats()
	ctx.Gather("p", 1, Elem64)
	if len(ctx.Stats().Trace()) != 0 {
		t.Fatal("reset enabled tracing out of nowhere")
	}
}

func TestRunAllPanicDoesNotLeakGoroutines(t *testing.T) {
	ctx := NewContext(4, M2090())
	before := runtime.NumGoroutine()
	for trial := 0; trial < 10; trial++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic not propagated")
				}
			}()
			ctx.RunAll(func(d int) {
				if d%2 == 1 {
					panic("device failure")
				}
			})
		}()
	}
	// Every device goroutine must have exited; allow the runtime a moment
	// to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunAllPanicRunsEveryDevice(t *testing.T) {
	// A panicking device must not prevent the others from completing
	// (RunAll waits for all devices before re-raising).
	ctx := NewContext(3, M2090())
	ran := make([]bool, 3)
	func() {
		defer func() { recover() }()
		ctx.RunAll(func(d int) {
			ran[d] = true
			if d == 0 {
				panic("first device fails fast")
			}
		})
	}()
	for d, ok := range ran {
		if !ok {
			t.Fatalf("device %d never ran", d)
		}
	}
}

func TestRunAllMultiplePanicsPickFirstDevice(t *testing.T) {
	// With several failing devices the re-raised panic is the lowest
	// device's, deterministically.
	ctx := NewContext(3, M2090())
	defer func() {
		r := recover()
		if r != "device 1" {
			t.Fatalf("recovered %v, want device 1", r)
		}
	}()
	ctx.RunAll(func(d int) {
		if d >= 1 {
			panic("device " + string(rune('0'+d)))
		}
	})
}

// TestConcurrentLateNames: goroutines charging names no ledger has seen,
// to one ledger and to their own, register them without a race and keep
// every charge (make race runs it).
func TestConcurrentLateNames(t *testing.T) {
	shared := newStats(2)
	done := make(chan *Stats)
	for g := range 4 {
		go func() {
			own := newStats(2)
			for k := range 8 {
				name := fmt.Sprintf("concurrent-%d-%d", g, k)
				shared.addCompute(name, []int{0, 1}, []float64{1, 2}, []Work{{}, {}})
				own.addHost(name, 1, 0)
			}
			done <- own
		}()
	}
	for range 4 {
		if own := <-done; len(own.Phases()) != 8 || own.TotalTime() != 8 {
			t.Errorf("own ledger: %d phases, total %v, want 8 and 8", len(own.Phases()), own.TotalTime())
		}
	}
	if n, total := len(shared.Phases()), shared.TotalTime(); n != 32 || total != 64 {
		t.Errorf("shared ledger: %d phases, total %v, want 32 and 64", n, total)
	}
	if got := shared.DevicePhase(1, "concurrent-3-7").DeviceTime; got != 2 {
		t.Errorf("device 1 of concurrent-3-7: %v, want 2", got)
	}
}
