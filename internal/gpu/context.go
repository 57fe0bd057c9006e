// Package gpu simulates the multi-GPU execution environment of the paper
// (two 8-core Sandy Bridge CPUs driving three NVIDIA M2090 GPUs over
// PCI Express) on a plain multicore machine.
//
// Each simulated device is backed by real parallel execution: Context.RunAll
// runs one goroutine per device, so device-local kernels genuinely execute
// concurrently and all numerical results are exact. The paper's host-staged
// reduce protocol on top of it — launch, gather, host sum, broadcast — is
// Context.Launch/Gather/Broadcast/AllReduce (collective.go).
//
// What is *modeled* is the cost of the hardware the host machine does not
// have: every CPU<->GPU communication round and every device kernel reports
// its shape (messages, bytes, flops) to a Stats ledger, which converts it to
// modeled time using a CostModel calibrated to the paper's testbed. The
// performance *shape* results of the paper (latency-vs-bandwidth crossovers
// in the matrix powers kernel, reduction counts of the orthogonalization
// strategies, multi-GPU scaling) are therefore reproduced from first
// principles: identical communication structure, calibrated constants.
package gpu

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CostModel holds the hardware constants used to convert communication and
// computation events into modeled seconds.
type CostModel struct {
	// Latency is the fixed per-round cost of a CPU<->GPU transfer phase
	// (driver launch + DMA setup), the alpha of the alpha-beta model.
	// Messages to distinct GPUs in the same round are asynchronous and
	// overlap, so a round pays Latency once.
	Latency float64 // seconds
	// Bandwidth is the aggregate PCIe bandwidth in bytes/second shared by
	// the devices (the beta term).
	Bandwidth float64
	// DeviceGflops is the sustained double-precision rate of one device
	// for compute-bound kernels (GEMM), in Gflop/s.
	DeviceGflops float64
	// DeviceMemBW is the sustained device memory bandwidth in bytes/s;
	// memory-bound kernels (SpMV, BLAS-1/2) are charged against it.
	DeviceMemBW float64
	// HostGflops and HostMemBW describe the CPU side (threaded MKL in the
	// paper), used for the small Cholesky/QR/least-squares work and the
	// CPU reference solver.
	HostGflops float64
	HostMemBW  float64
	// KernelLaunch is the fixed overhead of launching one device kernel;
	// it is what makes many tiny BLAS-1 calls (MGS) expensive on GPUs
	// even before communication.
	KernelLaunch float64
	// FP32Speedup is the device throughput ratio of single- over
	// double-precision arithmetic for compute-bound kernels: a kernel
	// whose Work.Elem is sub-FP64 divides its flop time by this factor.
	// Zero (the historical zero value) means no speedup — FP32 work is
	// charged at the FP64 rate — so every pre-precision model and golden
	// is unchanged. Memory-bound kernels are unaffected: their advantage
	// comes from Work.Bytes, which the caller already halves.
	FP32Speedup float64
}

// M2090 returns the paper's machine: NVIDIA Tesla M2090 (Fermi) GPUs on
// PCIe 2.0 x16 with two 8-core Sandy Bridge CPUs, every device hanging
// off one host hub (device-to-device traffic bounces through host
// memory). Values are sustained (not peak) figures from the published
// hardware documentation and the paper's own kernel measurements.
func M2090() Profile {
	return Profile{
		Name: "m2090",
		Model: CostModel{
			Latency:      15e-6, // ~15 us per transfer round
			Bandwidth:    6e9,   // ~6 GB/s effective PCIe 2.0 x16
			DeviceGflops: 300,   // sustained DGEMM (665 peak)
			DeviceMemBW:  120e9, // sustained of 177 GB/s peak
			HostGflops:   100,   // 16-core SNB threaded MKL DGEMM
			HostMemBW:    40e9,  // two-socket sustained stream
			KernelLaunch: 5e-6,  // CUDA kernel launch overhead
		},
		// A peer "hop" is still a host hop here.
		Topo: Topology{Kind: TopoHostHub, PeerLatency: 15e-6, PeerBandwidth: 6e9},
	}
}

// Context is a simulated multi-GPU node: NumDevices devices, a machine
// profile, and a stats ledger. It is safe for concurrent use by the device
// goroutines it spawns.
//
// A context may carry an armed fault plan (InjectFaults) and may be a
// Survivors view of a larger context: phys maps the view's logical
// device indices to the physical device ids of the root context, so the
// ledger attribution and the death checks always speak physical ids
// while the layers above address a dense 0..NumDevices-1 range. node is
// the same map one level up: the simulated node each logical device
// lives on under the current profile (see mapNodes). arena is the node's
// memory (workspace.go): a view draws from its root's, each logical
// device from its physical device's lane. scratch is the working memory of
// the collectives and the kernel charge (collective.go), this value's own:
// one goroutine at a time orchestrates a context (launches and charges),
// as the solvers always have.
type Context struct {
	NumDevices int
	prof       Profile
	stats      *Stats
	faults     *faultState
	timeline   *Timeline
	arena      *arena
	phys       []int // logical -> physical device id, ascending, built once per view; read-only
	node       []int // logical -> node, non-decreasing; rebuilt by SetProfile
	perNode    int   // physical device positions of one node
	scratch    collectiveScratch
	run        deviceRun // the state of a fork (RunAll), this value's own
}

// NewContext creates a context with ng simulated devices described by
// the profile (M2090() is the paper's machine).
func NewContext(ng int, p Profile) *Context {
	if ng < 1 {
		panic(fmt.Sprintf("gpu: NewContext with %d devices", ng))
	}
	phys := make([]int, ng)
	for d := range phys {
		phys[d] = d
	}
	c := &Context{NumDevices: ng, prof: p,
		stats: NewStats(), timeline: newTimeline(false), arena: newArena(ng), phys: phys}
	c.mapNodes()
	return c
}

// Stats returns the ledger for inspection.
func (c *Context) Stats() *Stats { return c.stats }

// ResetStats clears the ledger (benchmarks and solvers call this at the
// start of a run). Trace recording, if enabled, stays enabled with the
// same capacity; so does the overlap setting of the stream timeline,
// which resets to time zero alongside the ledger.
func (c *Context) ResetStats() {
	traceCap := c.stats.traceCap
	c.stats = NewStats()
	if traceCap > 0 {
		c.stats.EnableTrace(traceCap)
	}
	c.timeline = newTimeline(c.timeline.overlapEnabled())
}

// RunAll executes f(d) for every device d on its own goroutine and waits
// for all of them — the execution model of a host thread launching work on
// every GPU and synchronizing. Panics inside device code are collected and
// re-raised on the caller after all devices finish, so a failing device
// does not leak goroutines. A fork allocates nothing: its state is the
// context's own (a Survivors view has its own), so one fork at a time may
// run on a context — a RunAll, Launch or AllReduce from device code, or
// from a second goroutine while one is in flight, panics.
func (c *Context) RunAll(f func(d int)) {
	c.run.claim()
	c.run.fork(c.NumDevices, f)
}

// deviceRun is the state the goroutines of a fork share, kept on the
// context between forks so a fork allocates nothing: go statements
// without arguments start the per-device thunks, built on the first fork.
// A panic is recorded only when one is recovered.
type deviceRun struct {
	busy     atomic.Bool // a fork is in flight
	wg       sync.WaitGroup
	mu       sync.Mutex
	f        func(d int) // the fork's device code
	panicked int         // lowest device that panicked
	value    any         // what it panicked with
	thunks   []func()    // thunks[d] runs device d
}

// claim takes the re-entry guard; the fork that follows releases it. The
// collectives claim before they touch their scratch, so a nested Launch or
// AllReduce fails here too, not on what it overwrote.
func (r *deviceRun) claim() {
	if !r.busy.CompareAndSwap(false, true) {
		panic("gpu: fork of a context whose fork is in flight (a RunAll, Launch or AllReduce nested in device code, or from a second goroutine)")
	}
}

// fork runs f(d) on ng devices under a claimed guard, then releases it.
func (r *deviceRun) fork(ng int, f func(d int)) {
	if r.thunks == nil {
		r.thunks = make([]func(), ng)
		for d := range r.thunks {
			r.thunks[d] = func() { r.device(d) }
		}
	}
	r.f, r.panicked = f, ng
	r.wg.Add(ng)
	for _, thunk := range r.thunks {
		go thunk()
	}
	r.wg.Wait()
	panicked, value := r.panicked < ng, r.value
	r.f, r.value = nil, nil
	r.busy.Store(false)
	if panicked {
		panic(value)
	}
}

func (r *deviceRun) device(d int) {
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			if d < r.panicked {
				r.panicked, r.value = d, v
			}
			r.mu.Unlock()
		}
	}()
	r.f(d)
}

// --- Accounting -----------------------------------------------------------

// Work describes one device kernel's cost shape. Elem is the element
// width the kernel's vector operands use: the zero value (Elem64) keeps
// the historical FP64 charging, while sub-FP64 widths earn the cost
// model's FP32Speedup on the compute-bound estimate. Callers scale
// Bytes themselves — the width of each operand is theirs to know.
type Work struct {
	Flops float64 // floating-point operations
	Bytes float64 // memory traffic (reads+writes)
	Elem  Elem    // operand element width (zero value = FP64)
}

// Time converts the work to modeled seconds on the device: the larger of
// the compute-bound and memory-bound estimates plus the launch overhead.
func (m CostModel) deviceTime(w Work) float64 {
	gflops := m.DeviceGflops
	if w.Elem != Elem64 && m.FP32Speedup > 0 {
		gflops *= m.FP32Speedup
	}
	t := w.Flops / (gflops * 1e9)
	if mt := w.Bytes / m.DeviceMemBW; mt > t {
		t = mt
	}
	return t + m.KernelLaunch
}

// HostCores is the core count of the modeled host: the paper's testbed
// has two 8-core Sandy Bridge sockets. HostGflops and HostMemBW are
// aggregate figures over these cores.
const HostCores = 16

// serialBWShare is the fraction of the aggregate two-socket memory
// bandwidth a single core can sustain (typical STREAM scaling: one core
// saturates roughly a quarter of the socket-pair bandwidth).
const serialBWShare = 0.25

// dispatchSeconds is the modeled cost of one host scheduling event
// (goroutine spawn + channel synchronization), ~1 microsecond.
const dispatchSeconds = 1e-6

// HostKernel is the cost shape of one host-kernel invocation: the
// structural facts HostKernelTime charges, independent of the machine
// the program happens to run on.
type HostKernel struct {
	Flops float64 // floating-point operations
	Bytes float64 // memory traffic (reads+writes)
	// Parallelism is the number of concurrent workers the kernel schedule
	// uses: 1 for the serial one-pass kernels, the panel count for the
	// batched tall-skinny kernels. Values above HostCores are capped
	// there; zero means serial.
	Parallelism int
	// Dispatches is the number of scheduling events per invocation
	// (spawns, launches, reduction joins), each charged a fixed overhead
	// — what makes many tiny launches expensive before any data moves.
	// At least one is charged.
	Dispatches int
}

// HostKernelTime returns the modeled seconds of one invocation of k on
// HostCores host cores: the larger of the compute-bound and memory-bound
// estimates at k's parallelism, plus the dispatch overhead.
func (m CostModel) HostKernelTime(k HostKernel) float64 {
	p := min(max(k.Parallelism, 1), HostCores)
	// Compute rate scales linearly with the engaged cores.
	sec := k.Flops / (m.HostGflops * 1e9 * float64(p) / HostCores)
	// Bandwidth saturates once enough cores issue streams: one core
	// sustains serialBWShare of the aggregate, p cores min(1, p*share).
	share := min(float64(p)*serialBWShare, 1)
	if mt := k.Bytes / (m.HostMemBW * share); mt > sec {
		sec = mt
	}
	return sec + float64(max(k.Dispatches, 1))*dispatchSeconds
}

// commRound charges one host round in direction dir as a stream operation:
// bytes[d] is device d's share (fewer entries than devices: the rest send
// nothing), already at the wire size of width elem, which tags the volume
// on the precision ledger columns. The round costs one latency plus the
// serialized bus time of the volume (roundTime; remote nodes of a
// clustered profile add a fabric leg) and occupies the participating
// transfer streams after its dependencies. Gather and Broadcast
// (collective.go) are its exported forms, for equal shares. Every transfer
// round runs the same five steps in the same order — death check, route,
// fault draw, ledger, timeline — because the seeded fault stream's draw
// order is what makes chaos replays bit-identical.
func (c *Context) commRound(phase string, dir direction, bytes []int, elem Elem, after []StreamEvent) StreamEvent {
	c.checkDeaths(phase)
	devs, nodes := c.devIDs(len(bytes)), c.node[:len(bytes)]
	t := c.roundTime(bytes)
	stall := c.injectTransferFaults(phase, t)
	c.stats.addHostRound(phase, dir, devs, nodes, bytes, t, elem)
	return c.timeline.transferOp(dir, devs, t, stall, after)
}

// peerRound is commRound for a routed exchange: traffic[s][d] bytes
// travel from logical device s to logical device d without touching the
// host.
func (c *Context) peerRound(phase string, traffic [][]int, elem Elem, after []StreamEvent) StreamEvent {
	if len(traffic) != c.NumDevices {
		panic(fmt.Sprintf("gpu: peer traffic for %d devices on a %d-device context", len(traffic), c.NumDevices))
	}
	c.checkDeaths(phase)
	devs := c.devIDs(len(traffic))
	t := c.routeExchange(traffic)
	stall := c.injectTransferFaults(phase, t)
	c.stats.addPeerRound(phase, devs, c.node, traffic, t, elem)
	return c.timeline.transferOp(dirPeer, devs, t, stall, after)
}

// DeviceKernelOn charges a parallel device kernel: every device executes
// its own work item concurrently on its compute stream after the
// dependencies, so the phase advances by the maximum device time while
// each device's own ledger is charged its own time (work[d] is device d's
// share — the index is the device id within this context's view; straggler
// devices are slowed by their configured factor). The returned event fires
// when the slowest device finishes.
func (c *Context) DeviceKernelOn(phase string, work []Work, after ...StreamEvent) StreamEvent {
	c.checkDeaths(phase)
	ts := sized(&c.scratch.times, len(work))
	for d, w := range work {
		ts[d] = c.prof.Model.deviceTime(w) * c.faults.stragglerFactor(c.physOf(d))
	}
	c.stats.addCompute(phase, c.devIDs(len(work)), ts, work)
	return c.timeline.kernel(c.devIDs(len(work)), ts, after)
}

// HostComputeOn charges flops executed on the CPU (the Cholesky, small QR,
// eigenvalue and least-squares work the paper leaves on the host) to the
// host stream, after the dependencies.
func (c *Context) HostComputeOn(phase string, flops float64, after ...StreamEvent) StreamEvent {
	t := flops / (c.prof.Model.HostGflops * 1e9)
	c.stats.addHost(phase, t, flops)
	return c.timeline.hostOp(t, after)
}

// ScalarBytes is the wire size of one float64.
const ScalarBytes = 8
