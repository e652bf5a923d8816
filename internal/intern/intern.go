// Package intern maintains a process-wide table mapping strings to
// small, dense integer ids. The simulator's values, cell names,
// operations and responses are all strings drawn from tiny per-system
// alphabets but compared and hashed millions of times during model
// checking; interning turns every such string into a uint32 once, after
// which digests and comparisons are integer operations with no
// allocation.
//
// Ids are assigned in first-intern order and are stable for the life of
// the process, so any two digests computed in the same process are
// comparable. They are NOT stable across processes — callers must never
// persist interned ids or digests derived from them (the model checker's
// golden artifacts therefore store schedules and violation text, not
// fingerprints).
//
// The table is append-only and read-mostly: after the first execution of
// a system, every lookup hits the read path. A sync.RWMutex keeps the
// fast path a shared lock acquisition plus one map read.
//
// Even that shared lock is a contended atomic when several goroutines
// intern at once, so a goroutine that interns the same few strings over
// and over — a model-checker worker, through its sim.Pool — puts a Cache
// in front of the table: a plain map, owned by that one goroutine, that
// answers repeats without touching the table's lock. A Cache hands out
// the table's ids, so ids from a cache and from ID are interchangeable.
package intern

import "sync"

var tab = struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}{ids: make(map[string]uint32, 256)}

// ID returns the id for s, assigning the next free id on first sight.
func ID(s string) uint32 {
	id, _ := lookup(s)
	return id
}

// lookup returns the id for s and the table's own copy of s, assigning
// the next free id on first sight.
func lookup(s string) (uint32, string) {
	tab.mu.RLock()
	id, ok := tab.ids[s]
	var owned string
	if ok {
		owned = tab.strs[id]
	}
	tab.mu.RUnlock()
	if ok {
		return id, owned
	}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if id, ok := tab.ids[s]; ok {
		return id, tab.strs[id]
	}
	id = uint32(len(tab.strs))
	// strings.Clone semantics: s may be a slice of a larger buffer
	// (e.g. a fuzz input); copying detaches the table from it.
	owned = string(append([]byte(nil), s...))
	tab.ids[owned] = id
	tab.strs = append(tab.strs, owned)
	return id, owned
}

// Cache remembers the ids its owner looked up, in a map with no lock:
// one goroutine at a time may use it. A miss goes to the table. The
// zero Cache is ready to use; a nil *Cache looks every string up in the
// table.
type Cache struct {
	ids map[string]uint32
}

// ID returns the table's id for s, as the package-level ID does.
func (c *Cache) ID(s string) uint32 {
	if c == nil {
		return ID(s)
	}
	if id, ok := c.ids[s]; ok {
		return id
	}
	id, owned := lookup(s)
	if c.ids == nil {
		c.ids = make(map[string]uint32)
	}
	// Keyed by the table's copy, so the cache, like the table, never
	// keeps a caller's buffer alive.
	c.ids[owned] = id
	return id
}

// String returns the string interned under id; it panics on ids never
// returned by ID (a programming error, like an out-of-range slice index).
func String(id uint32) string {
	tab.mu.RLock()
	defer tab.mu.RUnlock()
	return tab.strs[id]
}

// Size returns the number of distinct strings interned so far.
func Size() int {
	tab.mu.RLock()
	defer tab.mu.RUnlock()
	return len(tab.strs)
}

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixing function. Digest maintenance throughout sim and mc builds on it
// so that structurally different configurations scatter across the full
// 64-bit space even though the inputs (interned ids, counters) are tiny
// integers.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MixPair combines two 64-bit words non-commutatively — MixPair(a, b)
// and MixPair(b, a) differ — for order-sensitive rolling digests.
func MixPair(a, b uint64) uint64 {
	return Mix64(a*0x9e3779b97f4a7c15 + b)
}
