package sched

import (
	"slices"
	"sync"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
	"cagmres/internal/obs"
)

// preparedCacheSize bounds how many prepared problems a scheduler keeps.
// An entry pins a permuted copy of its matrix plus the device matrices of
// every depth solved so far, so the bound is small and fixed.
const preparedCacheSize = 8

// preparedKey names one preparation: everything core.Prepare reads.
type preparedKey struct {
	matrix   string
	ordering core.Ordering
	balance  bool
	devices  int
}

// preparedEntry is one cached preparation. once makes concurrent misses
// on a key wait for a single core.Prepare instead of racing their own.
type preparedEntry struct {
	key  preparedKey
	once sync.Once
	p    *core.Problem
	err  error
}

// preparedCache is the scheduler's LRU of prepared problems, shared by
// its workers: ordering, partition, balance and (inside the Problem) the
// distributed plan are paid once per key instead of once per batch.
// Entries are handed out only as OnContext copies, so a batch owns its
// right-hand side and ledger while sharing everything read-only.
type preparedCache struct {
	mu      sync.Mutex
	entries []*preparedEntry // least recently used first

	// The cache's only tallies are its registry series: /metrics scrapes
	// them and Snapshot (hence /healthz) reads them back.
	hits, misses, evictions obs.Counter
}

func newPreparedCache(reg *obs.Registry) *preparedCache {
	if reg == nil {
		reg = obs.NewRegistry() // unexported tallies for registry-free embedders
	}
	series := func(result string) obs.Counter {
		return reg.CounterL("sched_prepared_problems_total",
			"Prepared-problem cache lookups and evictions, by result.", obs.L("result", result))
	}
	return &preparedCache{hits: series("hit"), misses: series("miss"), evictions: series("evict")}
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
	if spec.MatrixKey == "" {
		c.misses.Inc()
		p, err := core.Prepare(lease, spec.Matrix, spec.Ordering, spec.Balance)
		return p, false, err
	}
	e, hit := c.lookup(keyOf(lease, spec))
	e.once.Do(func() {
		e.p, e.err = core.Prepare(lease, spec.Matrix, spec.Ordering, spec.Balance)
	})
	if e.err != nil {
		return nil, hit, e.err
	}
	p, err := e.p.OnContext(lease)
	return p, hit, err
}

// lookup finds or inserts the entry for key and marks it most recently
// used, evicting the least recently used entry beyond the size bound.
func (c *preparedCache) lookup(key preparedKey) (*preparedEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.IndexFunc(c.entries, func(e *preparedEntry) bool { return e.key == key })
	hit := i >= 0
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
		if len(c.entries) == preparedCacheSize {
			c.entries = slices.Delete(c.entries, 0, 1)
			c.evictions.Inc()
		}
		c.entries = append(c.entries, &preparedEntry{key: key})
		i = len(c.entries) - 1
	}
	e := c.entries[i]
	c.entries = append(slices.Delete(c.entries, i, i+1), e) // most recently used last
	return e, hit
}

// drop evicts the entry for key, if cached — the scheduler's reaction to
// a lease fault, after which nothing the faulted lease touched is
// trusted.
func (c *preparedCache) drop(key preparedKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.IndexFunc(c.entries, func(e *preparedEntry) bool { return e.key == key }); i >= 0 {
		c.entries = slices.Delete(c.entries, i, i+1)
		c.evictions.Inc()
	}
}
