package cluster

import (
	"context"

	"cagmres/internal/gpu"
	"cagmres/internal/obs"
	"cagmres/internal/sched"
	"cagmres/internal/server"
)

// LocalNodeConfig configures one node: a full cagmresd stack (device
// pool, scheduler, HTTP surface) in the calling process. cagmresd binds
// its flags into one; the tests and the benchmark's serving workload
// build theirs the same way.
type LocalNodeConfig struct {
	// Name is the backend's shard identity (must be unique in a router).
	Name string
	// PoolSize / Devices shape the node's simulated hardware (defaults
	// 1 pooled context × 3 GPUs, the paper's node).
	PoolSize int
	Devices  int
	// Profile selects the machine description of the pooled contexts;
	// the zero value is the paper's m2090.
	Profile gpu.Profile
	// FaultPlans arms deterministic chaos on the pooled contexts (see
	// sched.PoolConfig); Repair readmits evicted contexts after a death.
	FaultPlans  []gpu.FaultPlan
	Repair      bool
	TraceEvents int
	// SLO overrides the node's SLO engine configuration (classes,
	// windows); the zero value takes the obs defaults.
	SLO obs.SLOConfig
	// Sched configures the node's scheduler; NewLocalNode fills in its
	// Pool, Registry and SLO engine, which runs on Sched.Clock. Zero
	// values take the sched defaults.
	Sched sched.Config
}

// LocalNode is one in-process backend: its scheduler, HTTP surface, and
// private metrics registry.
type LocalNode struct {
	Name     string
	Sched    *sched.Scheduler
	Server   *server.Server
	Registry *obs.Registry
}

// NewLocalNode builds and starts an in-process node.
func NewLocalNode(cfg LocalNodeConfig) *LocalNode {
	if cfg.Name == "" {
		cfg.Name = "node0"
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 1
	}
	if cfg.Devices == 0 {
		cfg.Devices = 3
	}
	reg := obs.NewRegistry()
	sc := cfg.Sched
	sc.Pool = sched.NewPool(sched.PoolConfig{
		Size:        cfg.PoolSize,
		Devices:     cfg.Devices,
		Profile:     cfg.Profile,
		FaultPlans:  cfg.FaultPlans,
		Repair:      cfg.Repair,
		TraceEvents: cfg.TraceEvents,
	})
	sc.Registry = reg
	sc.SLO = obs.NewSLOEngine(reg, cfg.SLO, sc.Clock)
	s := sched.New(sc)
	s.Start()
	return &LocalNode{
		Name:     cfg.Name,
		Sched:    s,
		Server:   server.New(s, reg),
		Registry: reg,
	}
}

// Drain stops the node's scheduler gracefully.
func (n *LocalNode) Drain(ctx context.Context) error { return n.Sched.Drain(ctx) }
