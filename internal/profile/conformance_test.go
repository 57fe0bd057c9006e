package profile

import (
	"math"
	"strings"
	"testing"

	"cagmres/internal/gpu"
)

// This file is the conformance suite for machine profiles: any
// gpu.Profile handed to conform must satisfy the invariants the solver
// stack assumes of a machine description — sane times, monotone costs,
// symmetric routing, an overlapped clock bounded by the serial one, and
// charge/replay determinism. New profiles get fenced by one more row of
// TestConformance; the suite is what lets the simulator accept
// user-supplied profiles (HTTP API, config files) without auditing each
// one by hand.

// devCount is the device count the suite exercises: enough for a ring
// with a non-trivial shortest arc and distinct switch links.
const devCount = 4

// conform asserts the full conformance suite against one profile.
func conform(t *testing.T, p gpu.Profile) {
	t.Helper()
	t.Run("finite-times", func(t *testing.T) { checkFiniteTimes(t, p) })
	t.Run("monotone-comm", func(t *testing.T) { checkMonotoneComm(t, p) })
	t.Run("monotone-compute", func(t *testing.T) { checkMonotoneCompute(t, p) })
	t.Run("route-symmetry", func(t *testing.T) { checkRouteSymmetry(t, p) })
	t.Run("lane-ledger", func(t *testing.T) { checkLaneLedger(t, p) })
	t.Run("overlap-identity", func(t *testing.T) { checkOverlapIdentity(t, p) })
	t.Run("fault-replay", func(t *testing.T) { checkFaultReplay(t, p) })
	t.Run("fp32-speedup", func(t *testing.T) { checkFP32Speedup(t, p) })
	t.Run("bf16-transfer", func(t *testing.T) { checkBF16Transfer(t, p) })
	t.Run("precision-ledger", func(t *testing.T) { checkPrecisionLedger(t, p) })
}

// workload drives every charging path of the runtime with deterministic
// shapes: host-mediated rounds, per-device and uniform kernels, host
// compute, a peer exchange, and a dependency chain.
func workload(c *gpu.Context) {
	ng := c.NumDevices
	c.Gather("setup", 512, gpu.Elem64)
	c.Broadcast("setup", 1024, gpu.Elem64)

	work := make([]gpu.Work, ng)
	for d := range work {
		work[d] = gpu.Work{Flops: float64(1+d) * 2e6, Bytes: float64(1+d) * 1.5e6}
	}
	c.DeviceKernelOn("spmv", work)
	uniformKernel(c, "tsqr", gpu.Work{Flops: 3e6, Bytes: 2e6})
	c.HostComputeOn("lsq", 5e5)

	exchange(c, "mpk", ringTraffic(ng, 4096))

	ev := c.Gather("orth", 256, gpu.Elem64, c.ComputeFence())
	c.DeviceKernelOn("orth", work, ev)
	c.HostComputeOn("lsq", 1e5)
	c.HaloExchangeElemOn("mpk", uniform(ng, 1024), uniform(ng, 3072), ringTraffic(ng, 1024), gpu.Elem64)
}

// uniform is a round's byte vector with b bytes for each of ng devices.
func uniform(ng, b int) []int {
	out := make([]int, ng)
	for d := range out {
		out[d] = b
	}
	return out
}

// uniformKernel charges one kernel that costs w on every device.
func uniformKernel(c *gpu.Context, phase string, w gpu.Work) {
	c.Launch(phase, func(int) gpu.Work { return w })
}

// exchange charges one exchange of traffic the way the profile routes it:
// the routed round where the machine has one, the host bounce of every
// device's send and receive totals where it has not.
func exchange(c *gpu.Context, phase string, traffic [][]int) {
	send, recv := make([]int, len(traffic)), make([]int, len(traffic))
	for s, row := range traffic {
		for d, b := range row {
			if s != d {
				send[s] += b
				recv[d] += b
			}
		}
	}
	c.HaloExchangeElemOn(phase, send, recv, traffic, gpu.Elem64)
}

// ringTraffic builds a neighbor-exchange traffic matrix: every device
// ships b bytes to each ring neighbor.
func ringTraffic(ng, b int) [][]int {
	tr := make([][]int, ng)
	for s := range tr {
		tr[s] = make([]int, ng)
		if ng > 1 {
			tr[s][(s+1)%ng] += b
			tr[s][(s+ng-1)%ng] += b
		}
	}
	return tr
}

// pairTraffic puts b bytes on the single ordered pair s->d.
func pairTraffic(ng, s, d, b int) [][]int {
	tr := make([][]int, ng)
	for i := range tr {
		tr[i] = make([]int, ng)
	}
	tr[s][d] = b
	return tr
}

func checkFiniteTimes(t *testing.T, p gpu.Profile) {
	t.Helper()
	c := gpu.NewContext(devCount, p)
	workload(c)
	st := c.Stats()
	if tt := st.TotalTime(); !(tt > 0) || math.IsInf(tt, 0) || math.IsNaN(tt) {
		t.Fatalf("total time not positive finite: %g", tt)
	}
	for _, phase := range st.Phases() {
		ps := st.Phase(phase)
		for name, v := range map[string]float64{
			"comm": ps.CommTime, "device": ps.DeviceTime, "host": ps.HostTime,
		} {
			if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("phase %s: %s time %g not finite and non-negative", phase, name, v)
			}
		}
		if ps.Bytes() < 0 || ps.Rounds < 0 || ps.Messages < 0 {
			t.Errorf("phase %s: negative counters %+v", phase, ps)
		}
	}
}

// checkMonotoneComm asserts the round cost never decreases as the byte
// volume grows, for both the host-mediated and the peer-routed path.
func checkMonotoneComm(t *testing.T, p gpu.Profile) {
	t.Helper()
	hostCost := func(b int) float64 {
		c := gpu.NewContext(devCount, p)
		c.Gather("x", b/gpu.ScalarBytes, gpu.Elem64)
		return c.Stats().TotalTime()
	}
	peerCost := func(b int) float64 {
		c := gpu.NewContext(devCount, p)
		exchange(c, "x", ringTraffic(devCount, b))
		return c.Stats().TotalTime()
	}
	sizes := []int{0, 64, 4096, 1 << 20, 64 << 20}
	for name, cost := range map[string]func(int) float64{"host": hostCost, "peer": peerCost} {
		prev := -1.0
		for _, b := range sizes {
			got := cost(b)
			if got < prev {
				t.Errorf("%s path: cost decreased from %g to %g at %d bytes", name, prev, got, b)
			}
			prev = got
		}
	}
}

// checkMonotoneCompute asserts kernel cost never decreases in flops or
// bytes, on the device and on the host.
func checkMonotoneCompute(t *testing.T, p gpu.Profile) {
	t.Helper()
	devCost := func(flops, bytes float64) float64 {
		c := gpu.NewContext(devCount, p)
		uniformKernel(c, "x", gpu.Work{Flops: flops, Bytes: bytes})
		return c.Stats().TotalTime()
	}
	hostCost := func(flops float64) float64 {
		c := gpu.NewContext(devCount, p)
		c.HostComputeOn("x", flops)
		return c.Stats().TotalTime()
	}
	prev := -1.0
	for _, f := range []float64{0, 1e3, 1e6, 1e9, 1e12} {
		if got := devCost(f, 0); got < prev {
			t.Errorf("device cost decreased to %g at %g flops", got, f)
		} else {
			prev = got
		}
	}
	prev = -1.0
	for _, b := range []float64{0, 1e3, 1e6, 1e9} {
		if got := devCost(0, b); got < prev {
			t.Errorf("device cost decreased to %g at %g bytes", got, b)
		} else {
			prev = got
		}
	}
	prev = -1.0
	for _, f := range []float64{0, 1e3, 1e6, 1e9} {
		if got := hostCost(f); got < prev {
			t.Errorf("host cost decreased to %g at %g flops", got, f)
		} else {
			prev = got
		}
	}
}

// checkRouteSymmetry asserts a unit transfer s->d costs exactly what
// d->s costs, for every ordered device pair — no topology the simulator
// ships has asymmetric links.
func checkRouteSymmetry(t *testing.T, p gpu.Profile) {
	t.Helper()
	cost := func(s, d int) float64 {
		c := gpu.NewContext(devCount, p)
		exchange(c, "x", pairTraffic(devCount, s, d, 1<<16))
		return c.Stats().TotalTime()
	}
	for s := 0; s < devCount; s++ {
		for d := s + 1; d < devCount; d++ {
			fwd, rev := cost(s, d), cost(d, s)
			if fwd != rev {
				t.Errorf("asymmetric route: %d->%d costs %g, %d->%d costs %g", s, d, fwd, d, s, rev)
			}
		}
	}
}

// checkLaneLedger asserts the overlapped schedule's horizon never exceeds
// the serial time the same charges add up to.
func checkLaneLedger(t *testing.T, p gpu.Profile) {
	t.Helper()
	c := gpu.NewContext(devCount, p)
	c.SetOverlap(true)
	workload(c)
	const tol = 1e-12
	if h, s := c.OverlappedTime(), c.SerialTime(); h > s*(1+tol) {
		t.Errorf("overlapped horizon %g exceeds serial time %g", h, s)
	}
}

// checkOverlapIdentity asserts the ledger charges are bit-identical
// with and without overlapped scheduling — overlap reorders time, it
// never changes what is charged.
func checkOverlapIdentity(t *testing.T, p gpu.Profile) {
	t.Helper()
	render := func(overlap bool) string {
		c := gpu.NewContext(devCount, p)
		c.SetOverlap(overlap)
		workload(c)
		return c.Stats().String() + "\n" + c.Stats().DeviceString()
	}
	sync, over := render(false), render(true)
	if sync != over {
		t.Errorf("ledger differs between sync and overlap schedules:\n--- sync ---\n%s\n--- overlap ---\n%s", sync, over)
	}
}

// checkFP32Speedup asserts a declared single-precision throughput ratio
// is physically plausible ([1, 8]) and actually buys time: an Elem32
// kernel never costs more than the identical Elem64 kernel, strictly
// less on a compute-bound shape when the ratio exceeds 1, and exactly
// the same when no ratio is declared.
func checkFP32Speedup(t *testing.T, p gpu.Profile) {
	t.Helper()
	sp := p.Model.FP32Speedup
	if sp != 0 && (!(sp >= 1) || sp > 8) {
		t.Fatalf("fp32_speedup %g outside [1, 8]", sp)
	}
	cost := func(e gpu.Elem) float64 {
		c := gpu.NewContext(devCount, p)
		uniformKernel(c, "x", gpu.Work{Flops: 1e10, Elem: e})
		return c.Stats().TotalTime()
	}
	f64, f32 := cost(gpu.Elem64), cost(gpu.Elem32)
	switch {
	case f32 > f64:
		t.Errorf("fp32 kernel costs %g > fp64 kernel %g", f32, f64)
	case sp > 1 && !(f32 < f64):
		t.Errorf("fp32_speedup %g declared but compute-bound fp32 kernel not cheaper (%g vs %g)", sp, f32, f64)
	case sp == 0 && f32 != f64:
		t.Errorf("no fp32_speedup declared but fp32 kernel costs %g != fp64 %g", f32, f64)
	}
}

// checkBF16Transfer asserts a bfloat16-transfer claim is consistent
// with the interconnect (peer-to-peer links, RDMA fabric when
// clustered) and that a bf16 halo exchange is strictly cheaper than the
// same exchange at full width — the claim must buy β, not just exist.
func checkBF16Transfer(t *testing.T, p gpu.Profile) {
	t.Helper()
	if !p.BF16Transfer {
		return
	}
	if !p.Topo.PeerToPeer() {
		t.Fatalf("profile claims bf16 transfer on non-peer topology %q", p.Topo.Kind)
	}
	// Callers ship payloads already at the narrow width (the elem
	// argument tags the ledger; it does not rescale bytes), so the
	// exchange is costed at scaled volumes exactly as the MPK does.
	const scalars = 1 << 19
	cost := func(e gpu.Elem) (float64, *gpu.Stats) {
		b := scalars * e.Bytes()
		c := gpu.NewContext(devCount, p)
		c.HaloExchangeElemOn("x", uniform(devCount, b), uniform(devCount, b), ringTraffic(devCount, b), e)
		return c.Stats().TotalTime(), c.Stats()
	}
	f64, _ := cost(gpu.Elem64)
	bf, st := cost(gpu.ElemBF16)
	if !(bf < f64) {
		t.Errorf("bf16 halo exchange not cheaper than fp64: %g vs %g", bf, f64)
	}
	if st.Phase("x").BytesCompressed == 0 {
		t.Errorf("bf16 exchange left the compressed ledger column empty: %+v", st.Phase("x"))
	}
}

// checkPrecisionLedger asserts the conditional-column promise on every
// profile: an all-FP64 workload renders a ledger without the precision
// columns, while tagged narrow traffic makes them appear.
func checkPrecisionLedger(t *testing.T, p gpu.Profile) {
	t.Helper()
	c := gpu.NewContext(devCount, p)
	workload(c)
	table := c.Stats().String() + c.Stats().DeviceString()
	for _, col := range []string{"bytesFP32", "bytesComp"} {
		if strings.Contains(table, col) {
			t.Errorf("fp64 workload grew a %s column:\n%s", col, table)
		}
	}
	c.Gather("x", 1024, gpu.Elem32)
	if !strings.Contains(c.Stats().String(), "bytesFP32") {
		t.Errorf("fp32-tagged round missing bytesFP32 column:\n%s", c.Stats().String())
	}
}

// checkFaultReplay asserts a seeded fault plan replays bit-identically:
// same plan, same workload, same ledger and fault tallies.
func checkFaultReplay(t *testing.T, p gpu.Profile) {
	t.Helper()
	run := func() (string, gpu.FaultCounts) {
		c := gpu.NewContext(devCount, p)
		c.InjectFaults(gpu.FaultPlan{Seed: 7, TransferFaultProb: 0.4, MaxTransferFaults: 5})
		workload(c)
		return c.Stats().String() + "\n" + c.Stats().DeviceString(), c.FaultCounts()
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 {
		t.Errorf("fault replay diverged:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
	}
	if f1 != f2 {
		t.Errorf("fault counts diverged: %+v vs %+v", f1, f2)
	}
	if f1.TransferFaults == 0 {
		t.Errorf("fault plan injected nothing: counts %+v", f1)
	}
}
