package gpu

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// This file is the deterministic fault-injection layer of the simulated
// runtime. Real multi-GPU nodes lose devices (ECC double-bit errors, bus
// drops, driver resets), suffer transient PCIe transfer failures, and
// develop stragglers; the cost model alone reproduces none of that, so
// the layers above it — the solvers' re-partitioning recovery, the
// scheduler's retry/eviction machinery — could never be exercised. A
// FaultPlan injects those failures *on the virtual clock*: device deaths
// fire when the ledger's modeled time crosses a threshold, transfer
// faults are drawn from a seeded RNG in ledger-charge order (which is the
// solvers' deterministic program order), and retry backoff is charged to
// the ledger as modeled time. The same plan over the same workload
// therefore produces bit-identical failure schedules on every machine —
// every chaos scenario is an ordinary deterministic test.

// DeviceDeath schedules the permanent loss of one device: the first
// ledger charge at or after virtual time At that involves the device
// raises a *DeviceLostError.
type DeviceDeath struct {
	Device int     // physical device id
	At     float64 // virtual (modeled) seconds since the plan was armed / the ledger was last reset
}

// Straggler slows one device: its kernel times are multiplied by Factor
// (> 1), modeling thermal throttling or a contended PCIe lane. Straggler
// slowdown is charged through the normal cost model, so the phase
// aggregates (max over devices) show the collapse-to-slowest effect.
type Straggler struct {
	Device int
	Factor float64
}

// FaultPlan is a seeded, deterministic failure schedule for one context.
type FaultPlan struct {
	// Seed drives the transfer-fault RNG. Two runs of the same workload
	// with the same seed draw identical fault sequences.
	Seed int64
	// Deaths lists scheduled device losses.
	Deaths []DeviceDeath
	// TransferFaultProb is the per-communication-round probability of a
	// transient transfer failure (0 disables). Each retry attempt draws
	// independently.
	TransferFaultProb float64
	// MaxTransferFaults caps the total number of injected transfer
	// faults (0 = unlimited), so long runs cannot drown in retries.
	MaxTransferFaults int
	// Stragglers lists slowed devices.
	Stragglers []Straggler
}

// Empty reports whether the plan injects nothing.
func (p FaultPlan) Empty() bool {
	return len(p.Deaths) == 0 && p.TransferFaultProb == 0 && len(p.Stragglers) == 0
}

// The transparent retry of faulted transfer rounds mirrors a driver-level
// retry loop: capped exponential backoff on the virtual clock, 4 attempts,
// 50 us initial backoff doubling to at most 1 ms. Every failed attempt
// charges the round's modeled time plus the current backoff to the
// ledger's "fault" phase, so recovery is visible in the same accounting
// as regular work. Exhausting the attempts (the first one included)
// raises a *TransferError.
const (
	retryAttempts   = 4
	retryBackoff    = 50e-6
	retryMaxBackoff = 1e-3
)

// DeviceLostError reports a ledger charge that involved a dead device.
// It is raised as a panic from the charging call and is meant to be
// recovered at a solver checkpoint boundary (core does); At is the
// virtual time of detection.
type DeviceLostError struct {
	Device int
	Phase  string
	At     float64
}

func (e *DeviceLostError) Error() string {
	return fmt.Sprintf("gpu: device %d lost (phase %q, t=%.6fs)", e.Device, e.Phase, e.At)
}

// TransferError reports a communication round whose transient faults
// exhausted the retry attempts. Raised as a panic from the charging call;
// the scheduler treats it as lease-fatal and re-queues the job.
type TransferError struct {
	Phase    string
	Attempts int
}

func (e *TransferError) Error() string {
	return fmt.Sprintf("gpu: transfer failed after %d attempts (phase %q)", e.Attempts, e.Phase)
}

// FaultCounts is the monotone tally of injected faults and recovery
// actions on one context (shared by its Survivors views).
type FaultCounts struct {
	DeviceDeaths     int     // deaths triggered
	TransferFaults   int     // transfer-round failures injected
	TransferRetries  int     // successful retry attempts after a failure
	StragglerKernels int     // kernel launches slowed by a straggler
	BackoffSeconds   float64 // virtual seconds charged as retry backoff
}

// faultState is the mutable injection state, shared between a root
// context and every Survivors view derived from it. All fields are
// guarded by mu; ledger charges are serialized by the orchestrating
// goroutine, so contention is nil in practice.
type faultState struct {
	mu       sync.Mutex
	plan     FaultPlan
	rng      *rand.Rand
	devices  int       // physical device count of the root context
	dead     []bool    // per physical device
	consumed []bool    // per plan death entry
	slow     []float64 // per physical device straggler factor (0 = none)
	counts   FaultCounts
}

// InjectFaults arms the plan on this context (and any Survivors views
// later derived from it). Death times are relative to the ledger clock
// at future charges — arm immediately after ResetStats so they are
// relative to the run's start. Re-arming replaces the previous plan and
// clears dead devices; it is how a pool readmits a repaired context with
// a fresh schedule.
func (c *Context) InjectFaults(plan FaultPlan) {
	f := &faultState{
		plan:     plan,
		rng:      rand.New(rand.NewSource(plan.Seed)),
		devices:  c.physDevices(),
		dead:     make([]bool, c.physDevices()),
		consumed: make([]bool, len(plan.Deaths)),
		slow:     make([]float64, c.physDevices()),
	}
	for _, s := range plan.Stragglers {
		if s.Device >= 0 && s.Device < len(f.slow) && s.Factor > 1 {
			f.slow[s.Device] = s.Factor
		}
	}
	c.faults = f
}

// FaultsArmed reports whether a fault plan is active. The solvers use it
// to decide whether checkpoint maintenance is worth paying for.
func (c *Context) FaultsArmed() bool {
	return c.faults != nil && !c.faults.plan.Empty()
}

// FaultCounts returns the monotone fault tally (zero value when no plan
// is armed).
func (c *Context) FaultCounts() FaultCounts {
	if c.faults == nil {
		return FaultCounts{}
	}
	c.faults.mu.Lock()
	defer c.faults.mu.Unlock()
	return c.faults.counts
}

// DeadDevices returns the physical ids of devices that have died, in
// ascending order.
func (c *Context) DeadDevices() []int {
	if c.faults == nil {
		return nil
	}
	c.faults.mu.Lock()
	defer c.faults.mu.Unlock()
	var out []int
	for d, dead := range c.faults.dead {
		if dead {
			out = append(out, d)
		}
	}
	return out
}

// AliveDevices returns the physical ids of this context's view that are
// still alive, ascending.
func (c *Context) AliveDevices() []int {
	var out []int
	for d := 0; d < c.NumDevices; d++ {
		p := c.physOf(d)
		if c.faults == nil || !c.faults.deadPhys(p) {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// Survivors returns a context view over the alive devices: it shares the
// stats ledger, machine profile, fault state and memory of this context, but
// RunAll and the charging calls address only the survivors (logical
// device i is physical device Survivors()[i] on the ledger). It errors
// when no device survives. Do not ResetStats a view — reset the root.
func (c *Context) Survivors() (*Context, error) {
	alive := c.AliveDevices()
	if len(alive) == 0 {
		return nil, fmt.Errorf("gpu: no surviving devices")
	}
	v := &Context{
		NumDevices: len(alive),
		prof:       c.prof,
		stats:      c.stats,
		faults:     c.faults,
		timeline:   c.timeline,
		arena:      c.arena,
		phys:       alive,
	}
	v.mapNodes()
	return v, nil
}

// Repair clears the dead set and the straggler assignments, modeling a
// driver reset / device replacement between leases. Scheduled deaths
// that already fired stay consumed (they do not fire again); pending
// deaths and the transfer-fault stream stay armed. The fault tally is
// preserved (it is monotone).
func (c *Context) Repair() {
	if c.faults == nil {
		return
	}
	c.faults.mu.Lock()
	defer c.faults.mu.Unlock()
	for d := range c.faults.dead {
		c.faults.dead[d] = false
	}
	for d := range c.faults.slow {
		c.faults.slow[d] = 0
	}
}

// physOf maps a logical device index of this view to its physical id.
func (c *Context) physOf(d int) int { return c.phys[d] }

// physDevices returns the physical device count backing this view.
func (c *Context) physDevices() int {
	if c.faults != nil {
		return c.faults.devices
	}
	max := 0
	for _, p := range c.phys {
		if p+1 > max {
			max = p + 1
		}
	}
	return max
}

// devIDs returns the physical ids of the first n logical devices — the
// ledger attribution of a charge made through this view. The slice is a
// prefix of the view's own map: read it, do not keep or change it.
func (c *Context) devIDs(n int) []int { return c.phys[:n:n] }

func (f *faultState) deadPhys(p int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return p < len(f.dead) && f.dead[p]
}

// checkDeaths triggers any scheduled deaths whose time has come and, if
// a device of this view is dead, records a fault event and panics with
// *DeviceLostError. Called before every device-involving ledger charge;
// a nil fault state costs one pointer test.
func (c *Context) checkDeaths(phase string) {
	f := c.faults
	if f == nil || len(f.plan.Deaths) == 0 {
		return
	}
	// Deaths fire on the modeled clock. Under the synchronous schedule
	// that is the ledger's TotalTime (unchanged, so every existing fault
	// schedule replays byte-identically); under overlapped scheduling the
	// physical clock is the stream timeline's horizon — the same plan
	// fires at the times the overlapped execution actually reaches.
	now := c.stats.TotalTime()
	if c.timeline.overlapEnabled() {
		now = c.timeline.horizon()
	}
	f.mu.Lock()
	for i, d := range f.plan.Deaths {
		if !f.consumed[i] && now >= d.At && d.Device >= 0 && d.Device < len(f.dead) {
			f.consumed[i] = true
			if !f.dead[d.Device] {
				f.dead[d.Device] = true
				f.counts.DeviceDeaths++
				c.stats.addFault(phase, d.Device, "death", 0)
			}
		}
	}
	var lost = -1
	for d := 0; d < c.NumDevices && lost < 0; d++ {
		if p := c.physOf(d); p < len(f.dead) && f.dead[p] {
			lost = p
		}
	}
	f.mu.Unlock()
	if lost >= 0 {
		panic(&DeviceLostError{Device: lost, Phase: phase, At: now})
	}
}

// injectTransferFaults draws the seeded transfer-fault stream for one
// communication round of modeled duration t. Every failed attempt
// charges the wasted round plus the current backoff to the ledger's
// "fault" phase (virtual-time exponential backoff, capped); exhausting
// retryAttempts panics with *TransferError. Returns the total stall (the
// retries' modeled time, which extends the round on its transfer streams)
// once an attempt succeeds.
func (c *Context) injectTransferFaults(phase string, t float64) float64 {
	f := c.faults
	if f == nil {
		return 0
	}
	f.mu.Lock()
	prob := f.plan.TransferFaultProb
	if prob <= 0 ||
		(f.plan.MaxTransferFaults > 0 && f.counts.TransferFaults >= f.plan.MaxTransferFaults) {
		f.mu.Unlock()
		return 0
	}
	attempt := 1
	backoff := retryBackoff
	stall := 0.0
	for f.rng.Float64() < prob {
		f.counts.TransferFaults++
		if attempt >= retryAttempts {
			f.mu.Unlock()
			panic(&TransferError{Phase: phase, Attempts: attempt})
		}
		// The failed attempt wasted the round's time; the retry waits out
		// the backoff. Both are modeled time on the "fault" phase.
		f.counts.TransferRetries++
		f.counts.BackoffSeconds += backoff
		c.stats.addFault(phase, HostDevice, "transfer", t+backoff)
		stall += t + backoff
		attempt++
		backoff = min(2*backoff, retryMaxBackoff)
		if f.plan.MaxTransferFaults > 0 && f.counts.TransferFaults >= f.plan.MaxTransferFaults {
			break
		}
	}
	f.mu.Unlock()
	return stall
}

// stragglerFactor returns the slowdown of a physical device (1 when
// none) and tallies slowed kernels.
func (f *faultState) stragglerFactor(p int) float64 {
	if f == nil {
		return 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if p < len(f.slow) && f.slow[p] > 1 {
		f.counts.StragglerKernels++
		return f.slow[p]
	}
	return 1
}
