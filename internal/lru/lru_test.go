package lru

import (
	"fmt"
	"sync"
	"testing"
)

// TestLRUBasics pins the Cache's contract: recency-refreshing gets,
// one-at-a-time eviction of the least recently used entry (never a
// wholesale wipe), in-place overwrites, and the capacity bound.
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
	// Overwriting refreshes in place without eviction: every key stays
	// and the count holds.
	l.Put("a", 10)
	if v, _ := l.Get("a"); v != 10 {
		t.Fatalf("a = %d after overwrite, want 10", v)
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := l.Get(k); !ok {
			t.Fatalf("%s evicted by an overwrite", k)
		}
	}
	if n := l.Len(); n != 3 {
		t.Fatalf("Len = %d after overwrite, want 3", n)
	}
	// The gets above left recency a, c, d (oldest first): two inserts
	// evict exactly a, then c.
	l.Put("e", 5)
	if _, ok := l.Get("a"); ok {
		t.Fatal("a should have been the first victim")
	}
	l.Put("f", 6)
	if _, ok := l.Get("c"); ok {
		t.Fatal("c should have been the second victim")
	}
	for _, k := range []string{"d", "e", "f"} {
		if _, ok := l.Get(k); !ok {
			t.Fatalf("%s evicted out of recency order", k)
		}
	}
	if n := l.Len(); n != 3 {
		t.Fatalf("Len = %d, want the capacity 3", n)
	}
}

// TestLRUMinimumCapacity: a non-positive capacity holds one entry.
func TestLRUMinimumCapacity(t *testing.T) {
	l := New[string, int](0)
	l.Put("a", 1)
	l.Put("b", 2)
	if _, ok := l.Get("a"); ok || l.Len() != 1 {
		t.Fatalf("capacity-0 cache holds %d entries (a present: %v), want 1", l.Len(), ok)
	}
	if v, ok := l.Get("b"); !ok || v != 2 {
		t.Fatal("newest entry lost")
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

// TestLRUConcurrentUse drives one Cache from several goroutines, as the
// response and atlas memos are driven by request goroutines; run it
// under -race. The capacity bound holds throughout.
func TestLRUConcurrentUse(t *testing.T) {
	l := New[int, int](16)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				k := (g*31 + i) % 40
				l.Put(k, i)
				l.Get(k)
				if n := l.Len(); n > 16 {
					t.Errorf("Len = %d, over the capacity 16", n)
				}
			}
		}()
	}
	wg.Wait()
}
