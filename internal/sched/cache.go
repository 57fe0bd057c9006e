package sched

import (
	"slices"
	"sync"

	"cagmres/internal/obs"
)

// CacheSize bounds every Cache. An entry of either client pins a whole
// matrix — the server's parsed or generated CSR, the scheduler's permuted
// copy plus the device matrices of every depth solved so far — so the
// bound is small and fixed.
const CacheSize = 8

// Cache is a bounded LRU whose entries are built at most once:
// concurrent misses on a key wait for a single build instead of racing
// their own. Its only tallies are the {result=hit|miss|evict} series of
// its registry family: /metrics scrapes them and whoever reports the
// cache reads them back.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	entries []*cacheEntry[K, V] // least recently used first

	hits, misses, evictions obs.Counter
}

type cacheEntry[K comparable, V any] struct {
	key  K
	once sync.Once
	v    V
	err  error
}

// NewCache returns an empty cache counting into the named family of reg
// (a private registry when reg is nil).
func NewCache[K comparable, V any](reg *obs.Registry, family, help string) *Cache[K, V] {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	series := func(result string) obs.Counter {
		return reg.CounterL(family, help, obs.L("result", result))
	}
	return &Cache[K, V]{hits: series("hit"), misses: series("miss"), evictions: series("evict")}
}

// Get returns the value cached under key and whether the cache already
// held the key, running build on a miss. A failed build stays cached like
// a successful one until it is evicted or dropped.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, bool, error) {
	e, hit := c.lookup(key)
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, hit, e.err
}

// lookup finds or inserts the entry for key and marks it most recently
// used, evicting the least recently used entry beyond CacheSize.
func (c *Cache[K, V]) lookup(key K) (*cacheEntry[K, V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.index(key)
	hit := i >= 0
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
		if len(c.entries) == CacheSize {
			c.entries = slices.Delete(c.entries, 0, 1)
			c.evictions.Inc()
		}
		c.entries = append(c.entries, &cacheEntry[K, V]{key: key})
		i = len(c.entries) - 1
	}
	e := c.entries[i]
	c.entries = append(slices.Delete(c.entries, i, i+1), e) // most recently used last
	return e, hit
}

func (c *Cache[K, V]) index(key K) int {
	return slices.IndexFunc(c.entries, func(e *cacheEntry[K, V]) bool { return e.key == key })
}

// Drop evicts the entry for key, if cached.
func (c *Cache[K, V]) Drop(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.index(key); i >= 0 {
		c.entries = slices.Delete(c.entries, i, i+1)
		c.evictions.Inc()
	}
}
