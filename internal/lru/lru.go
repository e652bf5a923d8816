// Package lru is the repository's one bounded least-recently-used cache.
// The engine's memo tables, rcserve's small memos and the result store's
// in-memory front all use it.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded least-recently-used map: Put past the capacity
// evicts the entry touched longest ago, one at a time — never the whole
// working set at once — so a burst of one-off keys ages out gradually
// while hot entries stay resident. Values are stored as given; callers
// caching mutable values (byte slices) copy them themselves. Safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	max       int
	entries   map[K]*list.Element
	order     *list.List // front = most recently used
	evictions int64
}

// entry is the list payload.
type entry[K comparable, V any] struct {
	key K
	val V
}

// New builds a Cache holding at most max entries (minimum 1).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		max = 1
	}
	return &Cache[K, V]{max: max, entries: make(map[K]*list.Element), order: list.New()}
}

// Get returns the value for key, refreshing its recency on a hit.
func (l *Cache[K, V]) Get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or refreshes key, evicting least-recently-used entries
// as needed to respect the capacity.
func (l *Cache[K, V]) Put(key K, val V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.entries[key]; ok {
		el.Value.(*entry[K, V]).val = val
		l.order.MoveToFront(el)
		return
	}
	for len(l.entries) >= l.max {
		back := l.order.Back()
		if back == nil {
			break
		}
		l.order.Remove(back)
		delete(l.entries, back.Value.(*entry[K, V]).key)
		l.evictions++
	}
	l.entries[key] = l.order.PushFront(&entry[K, V]{key: key, val: val})
}

// Len returns the current entry count.
func (l *Cache[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Evictions returns the cumulative eviction count.
func (l *Cache[K, V]) Evictions() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictions
}
