package sched

import (
	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/obs"
)

// preparedKey names one preparation: everything core.Prepare reads.
type preparedKey struct {
	matrix   string
	ordering core.Ordering
	balance  bool
	devices  int
}

// preparedCache is the scheduler's Cache of prepared problems, shared by
// its workers: ordering, partition, balance and (inside the Problem) the
// distributed plan are paid once per key instead of once per batch.
// Entries are handed out only as OnContext copies, so a batch owns its
// right-hand side and ledger while sharing everything read-only. Snapshot
// (hence /healthz) reads the cache's series back.
type preparedCache struct {
	*Cache[preparedKey, *core.Problem]
}

func newPreparedCache(reg *obs.Registry) *preparedCache {
	return &preparedCache{NewCache[preparedKey, *core.Problem](reg, "sched_prepared_problems_total",
		"Prepared-problem cache lookups and evictions, by result.")}
}

// keyOf is the cache identity of spec's preparation on the lease.
func keyOf(lease *gpu.Context, spec *Spec) preparedKey {
	return preparedKey{spec.MatrixKey, spec.Ordering, spec.Balance, lease.NumDevices}
}

// problem returns the preparation of spec for the lease, bound to the
// lease's context and without a right-hand side, and whether the cache
// already held it. A spec without a MatrixKey has no identity to cache
// under and is prepared afresh. A failed preparation stays cached like a
// successful one: the same spec fails the same way.
func (c *preparedCache) problem(lease *gpu.Context, spec *Spec) (*core.Problem, bool, error) {
	prepare := func() (*core.Problem, error) {
		return core.Prepare(lease, spec.Matrix, spec.Ordering, spec.Balance)
	}
	if spec.MatrixKey == "" {
		c.misses.Inc()
		p, err := prepare()
		return p, false, err
	}
	p, hit, err := c.Get(keyOf(lease, spec), prepare)
	if err != nil {
		return nil, hit, err
	}
	p, err = p.OnContext(lease)
	return p, hit, err
}
