// Package sched turns the single-shot solver library into a multi-tenant
// service: a device-pool manager that leases simulated gpu.Contexts, a
// priority-aware admission queue with bounded depth, backpressure
// (reject-with-retry-after when full), per-job deadlines and cancellation
// threaded through the solvers' restart loops, and a small-job batching
// path that groups compatible solve requests — same matrix and solver
// parameters, different right-hand sides — into one device lease so the
// ordering/partition/balance preparation is paid once per batch.
//
// The paper treats its three GPUs as an exclusively owned resource; this
// package is the step the ROADMAP asks for beyond it: many concurrent
// solves sharing a fixed pool of multi-GPU contexts, with scheduling
// observable through the internal/obs registry (queue depth, wait and
// service time, rejections, pool utilization). internal/server exposes
// the scheduler over HTTP; cmd/cagmresd is the daemon.
package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"cagmres/internal/gpu"
)

// Pool manages a fixed set of simulated multi-GPU contexts. Workers
// check contexts out with Acquire and return them with Release, which
// resets the stats ledger so every lease starts from a clean clock
// (trace capacity, if enabled, is preserved by gpu.ResetStats).
//
// Release doubles as a health probe: a returned context with dead
// devices is evicted instead of pooled. With PoolConfig.Repair the
// context is repaired (driver reset) and readmitted; otherwise the pool
// shrinks, and once the last healthy context is gone Acquire fails with
// ErrPoolExhausted.
type Pool struct {
	devices int
	prof    gpu.Profile
	free    chan *gpu.Context
	repair  bool

	exhausted chan struct{} // closed when the last healthy context is evicted

	mu       sync.Mutex
	members  []*gpu.Context // every context not permanently evicted
	inUse    int
	healthy  int
	onChange func(inUse, size int)
	onHealth func(readmitted bool)
}

// PoolConfig parameterizes a fault-aware pool.
type PoolConfig struct {
	// Size is the number of pooled contexts; Devices the simulated GPU
	// count of each.
	Size    int
	Devices int
	// Profile is the machine description of every pooled context — cost
	// model plus interconnect topology; the zero value is gpu.M2090().
	Profile gpu.Profile
	// FaultPlans[i], when present and non-empty, is armed on pooled
	// context i — how cagmresd's -chaos-* flags and the tests schedule
	// deterministic failures into a running service. Missing entries stay fault-free.
	FaultPlans []gpu.FaultPlan
	// Repair readmits evicted contexts after a gpu.Repair (modeling a
	// driver reset / device replacement between leases); false removes
	// them from the pool permanently.
	Repair bool
	// TraceEvents, when > 0, enables the bounded event-trace ring on
	// every pooled context with that capacity. The ring is what the
	// request-trace endpoint stitches into per-device lanes; ResetStats
	// preserves the capacity across leases, so every job gets a fresh
	// ring of the same size.
	TraceEvents int
}

// ErrPoolExhausted is returned by Acquire once every pooled context has
// been evicted with repair disabled.
var ErrPoolExhausted = errors.New("sched: every pooled context has been evicted")

// NewPool builds a pool, arming the configured fault plans on the pooled
// contexts.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Size < 1 {
		panic(fmt.Sprintf("sched: NewPool with size %d", cfg.Size))
	}
	if cfg.Profile == (gpu.Profile{}) {
		cfg.Profile = gpu.M2090()
	}
	p := &Pool{devices: cfg.Devices, prof: cfg.Profile, repair: cfg.Repair,
		free:      make(chan *gpu.Context, cfg.Size),
		exhausted: make(chan struct{}),
		healthy:   cfg.Size}
	for i := 0; i < cfg.Size; i++ {
		c := gpu.NewContext(cfg.Devices, cfg.Profile)
		if cfg.TraceEvents > 0 {
			c.Stats().EnableTrace(cfg.TraceEvents)
		}
		if i < len(cfg.FaultPlans) && !cfg.FaultPlans[i].Empty() {
			c.InjectFaults(cfg.FaultPlans[i])
		}
		p.members = append(p.members, c)
		p.free <- c
	}
	return p
}

// Profile returns the machine description pooled contexts are (re)set to
// between leases.
func (p *Pool) Profile() gpu.Profile { return p.prof }

// Size returns the number of contexts the pool owns.
func (p *Pool) Size() int { return cap(p.free) }

// InUse returns how many contexts are currently leased.
func (p *Pool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// WorkspaceBytes returns the solve memory the pooled contexts hold
// between them: per context, the high-water mark of the attempts it
// served (gpu.Context.WorkspaceBytes).
func (p *Pool) WorkspaceBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.members {
		n += c.WorkspaceBytes()
	}
	return n
}

// Healthy returns how many contexts have not been evicted.
func (p *Pool) Healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy
}

// OnChange registers a hook called with (inUse, size) after every
// acquire and release — the metrics bridge. Call before any Acquire.
func (p *Pool) OnChange(f func(inUse, size int)) { p.onChange = f }

// OnHealth registers a hook called at every eviction with whether the
// context is readmitted — the metrics bridge, and the pool's only
// eviction tally. It runs under the pool's lock, in the step that updates
// Healthy, and must not call back into the pool. Call before any Acquire.
func (p *Pool) OnHealth(f func(readmitted bool)) { p.onHealth = f }

func (p *Pool) track(delta int) {
	p.mu.Lock()
	p.inUse += delta
	inUse := p.inUse
	p.mu.Unlock()
	if p.onChange != nil {
		p.onChange(inUse, p.Size())
	}
}

// Acquire checks a context out, blocking until one is free or ctx is
// done. The caller must Release it. Returns ErrPoolExhausted once every
// context has been evicted without repair.
func (p *Pool) Acquire(ctx context.Context) (*gpu.Context, error) {
	select {
	case c := <-p.free:
		p.track(1)
		return c, nil
	default:
	}
	select {
	case c := <-p.free:
		p.track(1)
		return c, nil
	case <-p.exhausted:
		return nil, ErrPoolExhausted
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release returns a leased context after a health probe: a context with
// dead devices is evicted (and, with Repair configured, repaired and
// readmitted). Healthy returns reset the ledger so the next lease
// observes a zero clock and no stale events.
func (p *Pool) Release(c *gpu.Context) {
	if len(c.DeadDevices()) > 0 {
		p.evict(c)
		return
	}
	// A solve may have re-targeted the lease at a per-request machine
	// profile (core.Options.Profile); restore the pool's configuration
	// so the next lease does not inherit it.
	c.SetProfile(p.prof)
	c.ResetStats()
	p.track(-1)
	select {
	case p.free <- c:
	default:
		panic("sched: Release of a context the pool does not miss")
	}
}

// evict removes an unhealthy context from circulation; with repair
// enabled it is reset (consumed deaths stay consumed, so a repaired
// context does not re-die on the same schedule) and readmitted.
func (p *Pool) evict(c *gpu.Context) {
	readmit := p.repair
	p.mu.Lock()
	if p.onHealth != nil {
		p.onHealth(readmit)
	}
	if !readmit {
		p.members = slices.DeleteFunc(p.members, func(m *gpu.Context) bool { return m == c })
		p.healthy--
		if p.healthy == 0 {
			close(p.exhausted)
		}
	}
	p.mu.Unlock()
	p.track(-1)
	if readmit {
		c.Repair()
		c.SetProfile(p.prof)
		c.ResetStats()
		select {
		case p.free <- c:
		default:
			panic("sched: readmission of a context the pool does not miss")
		}
	}
}
