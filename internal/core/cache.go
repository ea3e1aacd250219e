package core

import (
	"sync"
	"sync/atomic"
)

// Cache is the one bounded table of this module: every memo that pins
// what it remembers — the intern table, the policy-instance table, the
// union cache, the annotation memo, the SQL plan cache, the lineage
// monitor's tables, httpd's taint filters — is a Cache with its own
// constant bounds (docs/ARCHITECTURE.md "Bounded caches" lists them).
//
// Eviction is two-generation. Inserts go to the young generation; a hit
// in the old generation promotes the entry back to the young one; and
// when the young generation reaches half the entry cap, or its entries
// would pass half the byte budget, it becomes the old generation and the
// previous old one is dropped. A key used at least once per half a cap of
// inserts therefore survives any amount of churn, and what falls out is
// what went a whole generation unused. Nothing a consumer decides may
// depend on an entry being present — a miss recomputes — so eviction is
// always safe.
type Cache[K comparable, V any] struct {
	maxEntries, maxBytes, maxEntryBytes int

	mu         sync.RWMutex
	young, old map[K]cacheEntry[V]
	youngBytes int

	hits, misses, promotions, rotations atomic.Uint64
}

type cacheEntry[V any] struct {
	v    V
	size int
}

// CacheStats is a snapshot of a Cache's counters. Hits + Misses is the
// number of lookups; Promotions counts old-generation entries moved back
// to the young one, Rotations young generations aged into old ones.
type CacheStats struct {
	Hits, Misses, Promotions, Rotations uint64
}

// NewCache returns a cache holding at most entries entries and, when
// bytes > 0, at most bytes of entry sizes as passed to Add. When
// entryBytes > 0 an entry larger than it is never stored; it must not
// exceed bytes/2.
func NewCache[K comparable, V any](entries, bytes, entryBytes int) *Cache[K, V] {
	return &Cache[K, V]{maxEntries: entries, maxBytes: bytes, maxEntryBytes: entryBytes}
}

// Get returns the value cached under k. An old-generation hit promotes
// the entry.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.RLock()
	e, ok := c.young[k]
	aged := false
	if !ok {
		e, aged = c.old[k]
	}
	c.mu.RUnlock()
	if aged {
		e.v = c.install(k, e)
	}
	return c.counted(e.v, ok || aged)
}

// lookup is Get for a string-keyed cache probed with a string or a byte
// slice: indexing by string(k) copies nothing; only a promotion copies
// the key.
func lookup[V any, A string | []byte](c *Cache[string, V], k A) (V, bool) {
	c.mu.RLock()
	e, ok := c.young[string(k)]
	aged := false
	if !ok {
		e, aged = c.old[string(k)]
	}
	c.mu.RUnlock()
	if aged {
		e.v = c.install(string(k), e)
	}
	return c.counted(e.v, ok || aged)
}

func (c *Cache[K, V]) counted(v V, ok bool) (V, bool) {
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Add installs v under k unless k is already cached, and returns the
// value that is installed: whichever of several racing Adds of one key
// came first, so all of them agree on one value. A value whose size is
// over the per-entry limit is returned without being stored.
func (c *Cache[K, V]) Add(k K, v V, size int) V {
	if c.maxEntryBytes > 0 && size > c.maxEntryBytes {
		return v
	}
	return c.install(k, cacheEntry[V]{v, size})
}

// install puts e under k in the young generation, unless k is there
// already; an old-generation entry for k is promoted in e's place. Get
// promotes through it too, which also re-installs an entry that a
// rotation dropped between Get's read and write locks.
func (c *Cache[K, V]) install(k K, e cacheEntry[V]) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if y, ok := c.young[k]; ok {
		return y.v
	}
	if o, ok := c.old[k]; ok {
		delete(c.old, k)
		c.promotions.Add(1)
		e = o
	}
	if len(c.young) >= c.maxEntries/2 || c.maxBytes > 0 && c.youngBytes+e.size > c.maxBytes/2 {
		c.old, c.young, c.youngBytes = c.young, nil, 0
		c.rotations.Add(1)
	}
	if c.young == nil {
		c.young = make(map[K]cacheEntry[V])
	}
	c.young[k] = e
	c.youngBytes += e.size
	return e.v
}

// Len returns the number of cached entries, both generations.
func (c *Cache[K, V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.young) + len(c.old)
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() CacheStats {
	return CacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Promotions: c.promotions.Load(),
		Rotations:  c.rotations.Load(),
	}
}

// Values returns the cached values, both generations, in no order.
func (c *Cache[K, V]) Values() []V {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]V, 0, len(c.young)+len(c.old))
	for _, m := range [2]map[K]cacheEntry[V]{c.young, c.old} {
		for _, e := range m {
			out = append(out, e.v)
		}
	}
	return out
}

// Reset empties the cache; the counters keep counting.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	c.young, c.old, c.youngBytes = nil, nil, 0
	c.mu.Unlock()
}
