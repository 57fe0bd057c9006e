package gpu

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+1e-300) }

func TestNewContextValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 devices")
		}
	}()
	NewContext(0, M2090())
}

func TestRunAllExecutesEveryDevice(t *testing.T) {
	ctx := NewContext(3, M2090())
	var mask int64
	ctx.RunAll(func(d int) {
		atomic.AddInt64(&mask, 1<<uint(d))
	})
	if mask != 0b111 {
		t.Fatalf("mask = %b", mask)
	}
}

func TestRunAllParallel(t *testing.T) {
	// All devices must be in flight at once: use a barrier that only
	// releases when every device has arrived.
	ng := 4
	ctx := NewContext(ng, M2090())
	arrived := make(chan struct{}, ng)
	release := make(chan struct{})
	ctx.RunAll(func(d int) {
		arrived <- struct{}{}
		if d == 0 {
			for i := 0; i < ng; i++ {
				<-arrived
			}
			close(release)
		}
		<-release
	})
}

func TestRunAllPropagatesPanic(t *testing.T) {
	ctx := NewContext(2, M2090())
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	ctx.RunAll(func(d int) {
		if d == 1 {
			panic("device 1 failed")
		}
	})
}

// TestChargesShareTheViewsDeviceIDs: a launch costs one allocation per
// goroutine plus one for their shared state, and the ledger charges read
// the view's own logical-to-physical map — no copy per charge, capacity
// clipped so nothing can append into it, contents unchanged — on a root
// context and on a Survivors view.
func TestChargesShareTheViewsDeviceIDs(t *testing.T) {
	root := NewContext(3, M2090())
	root.InjectFaults(FaultPlan{Deaths: []DeviceDeath{{Device: 1, At: 0}}})
	func() {
		defer func() { _ = recover() }() // the death fires on the first charge
		root.Launch("p", every(Work{Flops: 1}))
	}()
	view, err := root.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range []*Context{NewContext(3, M2090()), view} {
		want := slices.Clone(ctx.phys)
		nop := func(int) {}
		if got := testing.AllocsPerRun(20, func() { ctx.RunAll(nop) }); got > float64(1+ctx.NumDevices) {
			t.Fatalf("RunAll on %d devices allocates %v times", ctx.NumDevices, got)
		}
		ids := ctx.devIDs(ctx.NumDevices - 1)
		if &ids[0] != &ctx.phys[0] || cap(ids) != len(ids) {
			t.Fatalf("devIDs returned a copy or an appendable slice (len %d cap %d)", len(ids), cap(ids))
		}
		ctx.DeviceKernelOn("p", make([]Work, ctx.NumDevices))
		ctx.Gather("p", 0, Elem64)
		ctx.HaloExchangeElemOn("p", make([]int, ctx.NumDevices), make([]int, ctx.NumDevices), nil, Elem64)
		if !slices.Equal(ctx.phys, want) {
			t.Fatalf("charges changed the view's device ids: %v, want %v", ctx.phys, want)
		}
	}
}

func TestReduceRoundAccounting(t *testing.T) {
	m := M2090().Model
	ctx := NewContext(3, M2090())
	ctx.commRound("tsqr", dirD2H, []int{100, 200, 300}, Elem64, nil)
	p := ctx.Stats().Phase("tsqr")
	if p.Rounds != 1 || p.Messages != 3 {
		t.Fatalf("rounds=%d msgs=%d", p.Rounds, p.Messages)
	}
	if p.BytesD2H != 600 || p.BytesH2D != 0 {
		t.Fatalf("bytes %d/%d", p.BytesD2H, p.BytesH2D)
	}
	want := m.Latency + 600/m.Bandwidth
	if !approx(p.CommTime, want, 1e-12) {
		t.Fatalf("comm time %v, want %v", p.CommTime, want)
	}
}

func TestBroadcastRoundAccounting(t *testing.T) {
	ctx := NewContext(2, M2090())
	ctx.commRound("borth", dirH2D, []int{50, 50}, Elem64, nil)
	p := ctx.Stats().Phase("borth")
	if p.BytesH2D != 100 || p.BytesD2H != 0 || p.Rounds != 1 {
		t.Fatalf("stats %+v", p)
	}
}

func TestLatencyPaidPerRoundNotPerMessage(t *testing.T) {
	// Two rounds of 3 messages each must cost 2 latencies, not 6 — the
	// property that gives MPK its factor-of-s latency win.
	m := M2090().Model
	ctx := NewContext(3, M2090())
	ctx.Gather("x", 0, Elem64)
	ctx.Gather("x", 0, Elem64)
	p := ctx.Stats().Phase("x")
	if !approx(p.CommTime, 2*m.Latency, 1e-12) {
		t.Fatalf("comm time %v, want %v", p.CommTime, 2*m.Latency)
	}
}

func TestDeviceKernelTakesMax(t *testing.T) {
	m := M2090().Model
	ctx := NewContext(2, M2090())
	w := []Work{{Flops: 3e9}, {Flops: 6e9}}
	ctx.DeviceKernelOn("gemm", w)
	p := ctx.Stats().Phase("gemm")
	want := 6e9/(m.DeviceGflops*1e9) + m.KernelLaunch
	if !approx(p.DeviceTime, want, 1e-12) {
		t.Fatalf("device time %v, want %v", p.DeviceTime, want)
	}
	if p.DeviceFlops != 9e9 {
		t.Fatalf("flops %v", p.DeviceFlops)
	}
	if p.Kernels != 1 {
		t.Fatalf("kernels %d", p.Kernels)
	}
}

func TestMemoryBoundKernel(t *testing.T) {
	// A kernel with tiny flops but huge memory traffic must be charged by
	// bandwidth, the SpMV regime.
	m := M2090().Model
	ctx := NewContext(1, M2090())
	ctx.Launch("spmv", every(Work{Flops: 1e6, Bytes: 1.2e9}))
	p := ctx.Stats().Phase("spmv")
	want := 1.2e9/m.DeviceMemBW + m.KernelLaunch
	if !approx(p.DeviceTime, want, 1e-12) {
		t.Fatalf("device time %v, want %v", p.DeviceTime, want)
	}
}

func TestHostCompute(t *testing.T) {
	m := M2090().Model
	ctx := NewContext(1, M2090())
	ctx.HostComputeOn("lsq", 2e9)
	p := ctx.Stats().Phase("lsq")
	if !approx(p.HostTime, 2e9/(m.HostGflops*1e9), 1e-12) {
		t.Fatalf("host time %v", p.HostTime)
	}
}

func TestStatsTotalAndString(t *testing.T) {
	ctx := NewContext(2, M2090())
	ctx.commRound("tsqr", dirD2H, []int{100, 100}, Elem64, nil)
	ctx.Launch("tsqr", every(Work{Flops: 1e9}))
	ctx.HostComputeOn("lsq", 1e8)
	total := ctx.Stats().TotalTime()
	want := ctx.Stats().Phase("tsqr").Total() + ctx.Stats().Phase("lsq").Total()
	if !approx(total, want, 1e-12) {
		t.Fatalf("total %v want %v", total, want)
	}
	s := ctx.Stats().String()
	if !strings.Contains(s, "tsqr") || !strings.Contains(s, "lsq") {
		t.Fatalf("String missing phases:\n%s", s)
	}
}

func TestResetStats(t *testing.T) {
	ctx := NewContext(1, M2090())
	ctx.Gather("p", 1, Elem64)
	ctx.ResetStats()
	if ctx.Stats().Phase("p").Rounds != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestPhasesSorted(t *testing.T) {
	ctx := NewContext(1, M2090())
	ctx.HostComputeOn("zeta", 1)
	ctx.HostComputeOn("alpha", 1)
	names := ctx.Stats().Phases()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("phases = %v", names)
	}
}

func TestM2090Sanity(t *testing.T) {
	m := M2090().Model
	if m.Latency <= 0 || m.Bandwidth <= 0 || m.DeviceGflops <= 0 ||
		m.DeviceMemBW <= 0 || m.HostGflops <= 0 || m.KernelLaunch <= 0 {
		t.Fatalf("cost model has non-positive entries: %+v", m)
	}
	// GPU must beat CPU on throughput, PCIe must be far slower than
	// device memory — the premise of the whole paper.
	if m.DeviceGflops <= m.HostGflops {
		t.Fatal("device should out-compute host")
	}
	if m.Bandwidth >= m.DeviceMemBW {
		t.Fatal("PCIe must be slower than device memory")
	}
}

func TestTraceRecordsEvents(t *testing.T) {
	ctx := NewContext(2, M2090())
	ctx.Stats().EnableTrace(100)
	ctx.Gather("tsqr", 1, Elem64)
	ctx.Broadcast("tsqr", 1, Elem32)
	ctx.Launch("spmv", every(Work{Flops: 1e6}))
	ctx.HostComputeOn("lsq", 1e3)
	ev := ctx.Stats().Trace()
	// The kernel launch fans out into one event per device, sharing a Step.
	if len(ev) != 5 {
		t.Fatalf("got %d events", len(ev))
	}
	wantKinds := []string{"reduce", "broadcast", "kernel", "kernel", "host"}
	wantDevs := []int{HostDevice, HostDevice, 0, 1, HostDevice}
	for i, e := range ev {
		if e.Kind != wantKinds[i] {
			t.Fatalf("event %d kind %q, want %q", i, e.Kind, wantKinds[i])
		}
		if e.Device != wantDevs[i] {
			t.Fatalf("event %d device %d, want %d", i, e.Device, wantDevs[i])
		}
		if e.Seq != i {
			t.Fatalf("event %d seq %d", i, e.Seq)
		}
	}
	if ev[2].Step != ev[3].Step {
		t.Fatal("per-device kernel events must share a launch step")
	}
	if ev[1].Step == ev[2].Step || ev[3].Step == ev[4].Step {
		t.Fatal("distinct launches must not share a step")
	}
	if ev[0].Phase != "tsqr" || ev[0].Bytes != 16 {
		t.Fatalf("event 0 = %+v", ev[0])
	}
}

func TestTraceRingBufferKeepsTail(t *testing.T) {
	ctx := NewContext(1, M2090())
	ctx.Stats().EnableTrace(3)
	for i := 0; i < 10; i++ {
		ctx.commRound("p", dirD2H, []int{i}, Elem64, nil)
	}
	ev := ctx.Stats().Trace()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	// The last three rounds are seq 7, 8, 9.
	for i, e := range ev {
		if e.Seq != 7+i {
			t.Fatalf("trace = %+v", ev)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	ctx := NewContext(1, M2090())
	ctx.Gather("p", 1, Elem64)
	if len(ctx.Stats().Trace()) != 0 {
		t.Fatal("trace recorded without EnableTrace")
	}
}
