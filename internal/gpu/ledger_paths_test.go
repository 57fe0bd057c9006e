package gpu

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// This file is the golden fence around the transfer side of the package:
// every way a round can reach the ledger — host rounds and routed
// exchanges, waiting for events and for nothing, each element width, each
// topology, one node or two, a Survivors view, a seeded transfer-fault
// stream — rendered through everything a caller can read back. It was
// recorded before the transfer path was collapsed to one routing
// function and one ledger charge, and must keep reproducing byte for
// byte: a refactor of this package changes structure, never a charge.

// pathsProfile is a four-device machine of the given node-local topology
// with easy constants; perNode > 0 groups the devices into nodes of that
// size over an InfiniBand-class fabric.
func pathsProfile(kind TopoKind, perNode int) Profile {
	p := Profile{
		Name:  "paths-" + string(kind),
		Model: M2090().Model,
		Topo:  Topology{Kind: kind, PeerLatency: 3e-6, PeerBandwidth: 50e9},
	}
	if perNode > 0 {
		p.Cluster = Cluster{DevicesPerNode: perNode, Fabric: Fabric{Kind: FabricIBHDR, Latency: 7e-6, Bandwidth: 12e9}}
	}
	return p
}

// pathsWorkload charges one of everything through c at the given element
// width: both host directions with and without an event to wait for, a
// routed exchange at FP64 whatever the width, a halo exchange with and
// without a traffic matrix, and enough compute for the overlapped
// schedule to have something to hide transfers behind.
func pathsWorkload(c *Context, elem Elem) {
	n := c.NumDevices
	w := elem.Bytes()
	bytes := make([]int, n)
	work := make([]Work, n)
	traffic := make([][]int, n)
	for d := range traffic {
		bytes[d] = 128 * w * (d + 1)
		work[d] = Work{Flops: 1e6 * float64(d+1), Bytes: 4e6, Elem: elem}
		traffic[d] = make([]int, n)
		traffic[d][(d+1)%n] += 64 * w * (d + 1) // forward neighbor
		traffic[d][(d+n-1)%n] += 32 * w         // backward neighbor
	}
	traffic[0][n/2] += 512 * w // one long-range pair

	c.commRound("reduce", dirD2H, bytes, elem, nil)
	c.commRound("bcast", dirH2D, bytes, Elem64, nil)
	k := c.DeviceKernelOn("kernel", work)
	r := c.commRound("reduce", dirD2H, bytes, elem, []StreamEvent{k})
	h := c.HostComputeOn("host", 2e5, r)
	b := c.commRound("bcast", dirH2D, bytes, elem, []StreamEvent{h})
	exchange(c, "peer", traffic)
	k = c.DeviceKernelOn("kernel", work, b)
	x := c.HaloExchangeElemOn("halo", bytes, bytes, traffic, elem, k)
	c.DeviceKernelOn("kernel", work, x)
	c.HaloExchangeElemOn("halohost", bytes, bytes, nil, elem, x)
	c.Launch("kernel", every(Work{Flops: 3e6, Bytes: 1e6}))
}

// pathsReport renders what the fence pins: both ledger tables, the exact
// bits of every phase's communication time, the two clocks and the fault
// tally.
func pathsReport(b *strings.Builder, c *Context) {
	st := c.Stats()
	b.WriteString(st.String())
	b.WriteString(st.DeviceString())
	for _, name := range st.Phases() {
		fmt.Fprintf(b, "comm[%s] %016x\n", name, math.Float64bits(st.Phase(name).CommTime))
	}
	fc := c.FaultCounts()
	fmt.Fprintf(b, "total %016x serial %016x (%.9e) overlapped %016x (%.9e)\n",
		math.Float64bits(st.TotalTime()), math.Float64bits(c.SerialTime()), c.SerialTime(),
		math.Float64bits(c.OverlappedTime()), c.OverlappedTime())
	fmt.Fprintf(b, "faults: deaths %d xfer %d retries %d straggled %d backoff %.9e\n",
		fc.DeviceDeaths, fc.TransferFaults, fc.TransferRetries, fc.StragglerKernels, fc.BackoffSeconds)
}

// pathsArm runs one arm and appends its report; a panic out of the
// workload (a transfer-fault stream that exhausts its retries) is part
// of the pinned behaviour, not a test failure.
func pathsArm(t *testing.T, b *strings.Builder, variant string, p Profile, elem Elem, overlap bool) {
	fmt.Fprintf(b, "=== %s %s nodes-of-%d %s overlap=%v ===\n", variant, p.Topo.Kind, p.Cluster.DevicesPerNode, elem, overlap)
	root := NewContext(4, p)
	root.SetOverlap(overlap)
	c := root
	switch variant {
	case "survivors":
		// The workload runs on the three survivors of device 1's death
		// (physical 0, 2, 3 — nodes 0, 1, 1 when clustered).
		c = surviving(t, root, 1)
	case "faults":
		root.InjectFaults(FaultPlan{Seed: 7, TransferFaultProb: 0.3, MaxTransferFaults: 6})
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(b, "panic: %v\n", r)
			}
		}()
		pathsWorkload(c, elem)
	}()
	pathsReport(b, root)
}

func TestLedgerPathsGolden(t *testing.T) {
	var b strings.Builder
	for _, variant := range []string{"plain", "survivors", "faults"} {
		for _, kind := range []TopoKind{TopoHostHub, TopoPCIeSwitch, TopoNVLinkRing, TopoAllToAll} {
			for _, perNode := range []int{0, 2} {
				for _, elem := range []Elem{Elem64, Elem32, ElemBF16} {
					for _, overlap := range []bool{false, true} {
						pathsArm(t, &b, variant, pathsProfile(kind, perNode), elem, overlap)
					}
				}
			}
		}
	}
	goldenCompare(t, "ledger_paths.golden", b.String())
}
