package engine

import (
	"sync/atomic"

	"rcons/internal/checker"
	"rcons/internal/lru"
)

// cacheKey identifies one memoized search: 128 bits of the type's
// canonical fingerprint (already a SHA-256; folding it keeps the
// collision probability negligible), the property, and the process
// count. A comparable struct of machine words keys the map with no
// per-lookup allocation or string building. Deliberately NOT routed
// through the process-wide intern table: rcserve classifies arbitrary
// user-supplied custom types, and interning every distinct fingerprint
// would grow the append-only table without bound while the cache itself
// stays bounded.
type cacheKey struct {
	fp   [2]uint64
	prop Property
	n    int
}

// CacheStats reports the engine cache's cumulative behavior.
type CacheStats struct {
	// Hits and Misses count lookups that did / did not find an entry.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries is the current number of memoized results.
	Entries int `json:"entries"`
	// Evictions counts entries dropped to respect the size bound.
	Evictions int64 `json:"evictions"`
	// PersistHits / PersistMisses count memo misses that were / were not
	// answered by the persistent result store (zero without one);
	// PersistErrors counts store reads or writes that failed (the search
	// proceeds regardless).
	PersistHits   int64 `json:"persistHits"`
	PersistMisses int64 `json:"persistMisses"`
	PersistErrors int64 `json:"persistErrors"`
}

// searchResult is a memoized witness-search outcome. Found=false is as
// meaningful as a witness: it records the (expensive) exhaustive proof
// that no witness exists for that (type, property, n).
type searchResult struct {
	found   bool
	witness checker.Witness
}

// cache is a bounded LRU memoization table for search results, keyed by
// fingerprint-derived cache keys. LRU (rather than the FIFO this used
// to be) keeps a steady request mix — rcserve serving a hot subset of
// the zoo while census traffic streams thousands of one-off generated
// types through the same engine — from evicting the hot entries: every
// hit refreshes its key, so the one-shot census keys age out first.
// The eviction machinery lives in lru.Cache; this wrapper only
// adds the hit/miss accounting.
type cache struct {
	entries      *lru.Cache[cacheKey, searchResult]
	hits, misses atomic.Int64
}

func newCache(max int) *cache {
	return &cache{entries: lru.New[cacheKey, searchResult](max)}
}

func (c *cache) get(key cacheKey) (searchResult, bool) {
	r, ok := c.entries.Get(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return r, ok
}

func (c *cache) put(key cacheKey, r searchResult) {
	c.entries.Put(key, r)
}

func (c *cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   c.entries.Len(),
		Evictions: c.entries.Evictions(),
	}
}
