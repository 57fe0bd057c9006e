package gpu

import (
	"math"
	"testing"
)

// streamWorkload drives a representative mix of stream operations with
// explicit dependencies through a context: kernels feeding reduces,
// broadcasts feeding kernels, host compute between rounds, and fences.
// It is deterministic, so two contexts driven through it see identical
// charge sequences.
func streamWorkload(ctx *Context) {
	ng := ctx.NumDevices
	work := func(f, b float64) []Work {
		w := make([]Work, ng)
		for d := range w {
			w[d] = Work{Flops: f * float64(d+1), Bytes: b}
		}
		return w
	}
	for i := 0; i < 4; i++ {
		k := ctx.DeviceKernelOn("spmv", work(2e6, 3e6))
		red := ctx.Gather("orth", 32, Elem64, k)
		// The broadcast relays the reduce's payload (implicit hostData
		// ordering); the host's small update then overlaps the device-side
		// broadcast + kernel — the paper's CPU/GPU overlap.
		bc := ctx.Broadcast("orth", 16, Elem64, red)
		ctx.DeviceKernelOn("orth", work(1e6, 8e6), bc)
		ctx.HostComputeOn("lsq", 1e6)
		if i%2 == 1 {
			prod := ctx.ComputeFence()
			ctx.Gather("tsqr", 64, Elem64, prod)
			ctx.HostComputeOn("tsqr", 3e6)
			ctx.Broadcast("tsqr", 64, Elem64, ctx.HostFence())
			ctx.DeviceKernelOn("tsqr", work(4e6, 2e6), transferFence(ctx))
		}
	}
	ctx.Launch("vec", every(Work{Flops: 1e6, Bytes: 4e6}))
	ctx.HostComputeOn("lsq", 2e6)
}

// transferFence is an event at the latest transfer-stream cursor.
func transferFence(c *Context) StreamEvent {
	tl := c.timeline
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return StreamEvent{at: latest(0, tl.transfer)}
}

// every is the Launch body of a kernel that costs w on every device.
func every(w Work) func(int) Work { return func(int) Work { return w } }

// Property (a): with overlap disabled (the default) every stream
// operation is a full barrier — the timeline's horizon equals its own
// serial accumulator bit for bit — and the ledger is the one the
// overlapped schedule of the same workload leaves.
func TestStreamDegeneratesToSynchronous(t *testing.T) {
	for _, ng := range []int{1, 2, 3} {
		off, on := NewContext(ng, M2090()), NewContext(ng, M2090())
		on.SetOverlap(true)
		streamWorkload(off)
		streamWorkload(on)
		if h, s := off.OverlappedTime(), off.SerialTime(); h != s {
			t.Fatalf("ng=%d: overlap off but Horizon %v != SerialTime %v", ng, h, s)
		}
		if got, want := off.Stats().String()+off.Stats().DeviceString(), on.Stats().String()+on.Stats().DeviceString(); got != want {
			t.Fatalf("ng=%d: synchronous ledger differs from the overlapped one:\n%s\n--- vs ---\n%s", ng, got, want)
		}
		if got, want := off.Stats().TotalTime(), on.Stats().TotalTime(); got != want {
			t.Fatalf("ng=%d: TotalTime %v != %v", ng, got, want)
		}
	}
}

// Property (a) continued: the ledger is invariant under the overlap
// flag — enabling overlap changes scheduling, never charges.
func TestOverlapLeavesLedgerUntouched(t *testing.T) {
	off := NewContext(3, M2090())
	on := NewContext(3, M2090())
	on.SetOverlap(true)
	streamWorkload(off)
	streamWorkload(on)
	if got, want := on.Stats().String(), off.Stats().String(); got != want {
		t.Fatalf("overlap changed the ledger:\n%s\n--- vs ---\n%s", got, want)
	}
	if got, want := on.SerialTime(), off.SerialTime(); got != want {
		t.Fatalf("overlap changed SerialTime: %v != %v", got, want)
	}
}

// Property (b): overlapped modeled time never exceeds the synchronous
// schedule — exactly, in floating point, not just approximately.
func TestOverlapNeverExceedsSerial(t *testing.T) {
	for _, ng := range []int{1, 2, 3, 4} {
		ctx := NewContext(ng, M2090())
		ctx.SetOverlap(true)
		streamWorkload(ctx)
		h, s := ctx.OverlappedTime(), ctx.SerialTime()
		if h > s {
			t.Fatalf("ng=%d: overlapped horizon %v > serial %v", ng, h, s)
		}
		if ng >= 2 && h >= s {
			t.Fatalf("ng=%d: workload has real overlap but horizon %v >= serial %v", ng, h, s)
		}
	}
}

// The overlapped schedule is deterministic: the same program replays to
// the bit-identical horizon.
func TestOverlapDeterministicReplay(t *testing.T) {
	run := func() (float64, float64, string) {
		ctx := NewContext(3, M2090())
		ctx.SetOverlap(true)
		ctx.InjectFaults(FaultPlan{Seed: 7, TransferFaultProb: 0.2, MaxTransferFaults: 20})
		streamWorkload(ctx)
		return ctx.OverlappedTime(), ctx.SerialTime(), ctx.Stats().String()
	}
	h1, s1, l1 := run()
	h2, s2, l2 := run()
	if h1 != h2 || s1 != s2 || l1 != l2 {
		t.Fatalf("overlapped replay diverged: horizon %v vs %v, serial %v vs %v", h1, h2, s1, s2)
	}
}

// ResetStats rewinds the timeline to zero but keeps the overlap setting,
// mirroring how it preserves trace capacity.
func TestResetStatsPreservesOverlap(t *testing.T) {
	ctx := NewContext(2, M2090())
	ctx.SetOverlap(true)
	streamWorkload(ctx)
	if ctx.OverlappedTime() == 0 {
		t.Fatal("workload advanced no time")
	}
	ctx.ResetStats()
	if !ctx.OverlapEnabled() {
		t.Fatal("ResetStats dropped the overlap setting")
	}
	if ctx.OverlappedTime() != 0 || ctx.SerialTime() != 0 {
		t.Fatal("ResetStats did not rewind the timeline")
	}
}

// Survivors views share the root's timeline: charges through the view
// land on the same streams (at the physical device ids), and the view
// sees the root's horizon.
func TestSurvivorsShareTimeline(t *testing.T) {
	ctx := NewContext(3, M2090())
	ctx.SetOverlap(true)
	ctx.InjectFaults(FaultPlan{Seed: 1, Deaths: []DeviceDeath{{Device: 1, At: 0}}})
	func() {
		defer func() { _ = recover() }()
		ctx.DeviceKernelOn("spmv", []Work{{Flops: 1e6}, {Flops: 1e6}, {Flops: 1e6}})
	}()
	view, err := ctx.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	view.DeviceKernelOn("spmv", []Work{{Flops: 1e6}, {Flops: 1e6}})
	if got, want := view.OverlappedTime(), ctx.OverlappedTime(); got != want {
		t.Fatalf("view horizon %v != root horizon %v", got, want)
	}
	// The view's logical devices 0,1 are physical 0,2 — the charges must
	// land on the physical ids.
	if ctx.Stats().DevicePhase(2, "spmv").DeviceTime == 0 {
		t.Fatal("view charge did not land on physical device 2")
	}
}

// With overlap enabled, scheduled deaths fire on the stream horizon; the
// same plan on the same program still replays deterministically.
func TestDeathsFireOnStreamClock(t *testing.T) {
	run := func() (float64, bool) {
		ctx := NewContext(2, M2090())
		ctx.SetOverlap(true)
		ctx.InjectFaults(FaultPlan{Seed: 3, Deaths: []DeviceDeath{{Device: 0, At: 1e-4}}})
		died := false
		var at float64
		func() {
			defer func() {
				if r := recover(); r != nil {
					e := r.(*DeviceLostError)
					died = true
					at = e.At
				}
			}()
			streamWorkload(ctx)
		}()
		return at, died
	}
	at1, died1 := run()
	at2, died2 := run()
	if !died1 || !died2 {
		t.Fatal("scheduled death did not fire under overlap")
	}
	if at1 != at2 {
		t.Fatalf("death times diverged across replays: %v vs %v", at1, at2)
	}
	if math.IsNaN(at1) || at1 < 1e-4 {
		t.Fatalf("death fired before its scheduled time: %v", at1)
	}
}

// Join and the zero StreamEvent behave as documented.
func TestStreamEventJoin(t *testing.T) {
	var zero StreamEvent
	if zero.at != 0 {
		t.Fatal("zero event not at time 0")
	}
	e := Join(StreamEvent{at: 2}, zero, StreamEvent{at: 5}, StreamEvent{at: 3})
	if e.at != 5 {
		t.Fatalf("Join = %v, want 5", e.at)
	}
}
