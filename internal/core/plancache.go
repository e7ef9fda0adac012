package core

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/store"
)

// planCache is the engine's bounded LRU of compiled plan templates,
// sitting between SQL generation and planning: questions that share a
// shape (same template, same parameter kinds — "sales in march" /
// "sales in april") reuse one compiled plan and pay only a bind.
//
// Entries are keyed on the shape key and carry the per-table versions
// (the stats epoch) their template was optimized against. A lookup
// whose pinned snapshot has moved past any dependency version misses:
// the template's cost model is stale, so the shape is recompiled
// against fresh statistics and the entry replaced. No plan decision
// reads a constant, so within an epoch every hit reuses the cached
// tree — the cache only ever hands out templates whose statistics
// basis is current.
//
// Recency is a tick stamp refreshed per hit; eviction scans for the
// stale minimum only when the cache is full. That keeps the hit path
// — which runs on every ask — down to one map probe and one store,
// with no list surgery on hot cache lines.
//
// The cache is safe for concurrent lookups and stores (one engine
// serves every request handler).
type planCache struct {
	mu      sync.Mutex
	size    int
	tick    uint64
	entries map[string]*planEntry
	hits    uint64
	misses  uint64
}

type planEntry struct {
	pq   *exec.PreparedQuery
	deps []tableDep
	used uint64 // tick of the last hit
}

func newPlanCache(size int) *planCache {
	return &planCache{size: size, entries: make(map[string]*planEntry)}
}

// lookup returns the cached template for key when every table it was
// compiled against is still at the same version in the pinned
// snapshot; a stale entry is evicted on sight. Every call counts as a
// hit or a miss. The key is passed as bytes so the per-ask hot path
// never materializes a string — the map probe through string(key)
// does not allocate.
func (c *planCache) lookup(key []byte, sn *store.Snapshot) *exec.PreparedQuery {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[string(key)]
	if !ok {
		c.misses++
		return nil
	}
	for _, d := range e.deps {
		if sn.TableVersion(d.Table) != d.Version {
			delete(c.entries, string(key))
			c.misses++
			return nil
		}
	}
	c.tick++
	e.used = c.tick
	c.hits++
	return e.pq
}

// store records a freshly compiled template, evicting the least
// recently used entry when full.
func (c *planCache) store(key string, pq *exec.PreparedQuery, deps []tableDep) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e, ok := c.entries[key]; ok {
		e.pq, e.deps, e.used = pq, deps, c.tick
		return
	}
	if len(c.entries) >= c.size {
		victim := ""
		var oldest uint64
		for k, e := range c.entries {
			if victim == "" || e.used < oldest {
				victim, oldest = k, e.used
			}
		}
		delete(c.entries, victim)
	}
	c.entries[key] = &planEntry{pq: pq, deps: deps, used: c.tick}
}

// stats returns the cumulative hit/miss counters.
func (c *planCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
