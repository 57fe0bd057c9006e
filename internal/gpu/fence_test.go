package gpu

import (
	"fmt"
	"strings"
	"testing"
)

// This file is the golden regression fence around the machine-profile
// refactor: the workload below was captured under the pre-refactor
// hard-wired M2090 cost model, and the default profile must keep
// reproducing every byte of it — ledger table, per-device breakdown,
// event trace, clocks and fault tallies. Any drift means the refactor
// changed behavior, not just structure.

// fenceWorkload drives one fixed mixed workload through a context:
// non-uniform and uniform rounds and kernels, host compute, operations
// chained by events and operations that wait for nothing, a seeded
// transfer-fault plan, a scheduled device death, and a Survivors
// re-route — every charging path the ledger has.
func fenceWorkload(ctx *Context) {
	ctx.InjectFaults(FaultPlan{
		Seed:              42,
		TransferFaultProb: 0.35,
		MaxTransferFaults: 3,
		Deaths:            []DeviceDeath{{Device: 1, At: 0.09}},
		Stragglers:        []Straggler{{Device: 2, Factor: 1.5}},
	})
	ctx.commRound("mpk", dirD2H, []int{4096, 2048, 1024}, Elem64, nil)
	ctx.Broadcast("mpk", 1024, Elem64)
	ctx.DeviceKernelOn("spmv", []Work{
		{Flops: 2e8, Bytes: 1.5e9},
		{Flops: 1e8, Bytes: 0.8e9},
		{Flops: 3e8, Bytes: 2.1e9},
	})
	ctx.Launch("tsqr", every(Work{Flops: 5.4e8, Bytes: 2.4e8}))
	ctx.HostComputeOn("lsq", 1.86e6)
	ev := ctx.Gather("borth", 930, Elem64)
	ev = ctx.DeviceKernelOn("borth", []Work{
		{Flops: 1e7, Bytes: 4e7},
		{Flops: 1e7, Bytes: 4e7},
		{Flops: 1e7, Bytes: 4e7},
	}, ev)
	ctx.HostComputeOn("lsq", 9.3e5, ev)
	// Push the clock past the scheduled death, recover the panic, then
	// keep charging through the Survivors view.
	ctx.Launch("spmv", every(Work{Flops: 9e8, Bytes: 6e9}))
	func() {
		defer func() {
			if r := recover(); r == nil {
				panic("fence: expected DeviceLostError")
			}
		}()
		ctx.Gather("mpk", 64, Elem64)
	}()
	view, err := ctx.Survivors()
	if err != nil {
		panic(err)
	}
	view.Gather("mpk", 64, Elem64)
	view.DeviceKernelOn("spmv", []Work{
		{Flops: 5e7, Bytes: 4e8},
		{Flops: 5e7, Bytes: 4e8},
	})
}

// fenceReport renders everything the fence asserts on.
func fenceReport(ctx *Context) string {
	var b strings.Builder
	b.WriteString("== stats ==\n")
	b.WriteString(ctx.Stats().String())
	b.WriteString("== devices ==\n")
	b.WriteString(ctx.Stats().DeviceString())
	b.WriteString("== trace ==\n")
	for _, e := range ctx.Stats().Trace() {
		fmt.Fprintf(&b, "%4d %4d %3d %-8s %-14s %10d %.9e\n",
			e.Seq, e.Step, e.Device, e.Phase, e.Kind, e.Bytes, e.Time)
	}
	fc := ctx.FaultCounts()
	fmt.Fprintf(&b, "== clocks ==\ntotal %.12e\nserial %.12e\nhorizon %.12e\n",
		ctx.Stats().TotalTime(), ctx.SerialTime(), ctx.OverlappedTime())
	fmt.Fprintf(&b, "== faults ==\ndeaths %d xfer %d retries %d straggled %d backoff %.9e\n",
		fc.DeviceDeaths, fc.TransferFaults, fc.TransferRetries, fc.StragglerKernels, fc.BackoffSeconds)
	return b.String()
}

// TestM2090FenceSync pins the synchronous schedule (overlap off: every
// operation a full barrier) of the fence workload under the default M2090
// machine description.
func TestM2090FenceSync(t *testing.T) {
	ctx := NewContext(3, M2090())
	ctx.Stats().EnableTrace(256)
	fenceWorkload(ctx)
	goldenCompare(t, "fence_sync.golden", fenceReport(ctx))
}

// TestM2090FenceOverlap pins the overlapped stream schedule: the ledger
// charges must be identical to the synchronous run (only the clocks
// differ), so the golden shares everything but the horizon line.
func TestM2090FenceOverlap(t *testing.T) {
	ctx := NewContext(3, M2090())
	ctx.Stats().EnableTrace(256)
	ctx.SetOverlap(true)
	fenceWorkload(ctx)
	goldenCompare(t, "fence_overlap.golden", fenceReport(ctx))
}
