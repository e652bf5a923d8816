package lru

import (
	"fmt"
	"testing"
)

// TestLRUBasics pins the Cache's contract: recency-refreshing
// gets, one-at-a-time eviction of the least recently used entry (never
// a wholesale wipe), and accurate counters.
func TestLRUBasics(t *testing.T) {
	l := New[string, int](3)
	l.Put("a", 1)
	l.Put("b", 2)
	l.Put("c", 3)
	if _, ok := l.Get("a"); !ok { // refresh a: b is now the oldest
		t.Fatal("a missing")
	}
	l.Put("d", 4) // evicts b only
	if _, ok := l.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := l.Get(k); !ok {
			t.Fatalf("%s evicted; overflow must evict one entry, not the working set", k)
		}
	}
	if n := l.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	if ev := l.Evictions(); ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
	// Overwriting refreshes in place without eviction.
	l.Put("a", 10)
	if v, _ := l.Get("a"); v != 10 {
		t.Fatalf("a = %d after overwrite, want 10", v)
	}
	if ev := l.Evictions(); ev != 1 {
		t.Fatalf("Evictions after overwrite = %d, want 1", ev)
	}
}

// TestLRUSpamDoesNotWipeHotEntry is the regression the canonical-
// fingerprint memo needed: a spam of one-off keys past the cap must age
// entries out gradually, keeping a continuously-touched hot key
// resident — unlike the old wipe-the-map-at-cap policy.
func TestLRUSpamDoesNotWipeHotEntry(t *testing.T) {
	l := New[string, string](64)
	l.Put("hot", "v")
	for i := 0; i < 1000; i++ {
		l.Put(fmt.Sprintf("spam-%d", i), "x")
		if _, ok := l.Get("hot"); !ok {
			t.Fatalf("hot entry evicted after %d one-off inserts", i+1)
		}
	}
	if l.Len() != 64 {
		t.Fatalf("Len = %d, want capacity 64", l.Len())
	}
}
