package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestIDStableAndRoundTrips(t *testing.T) {
	a := ID("intern-test-a")
	b := ID("intern-test-b")
	if a == b {
		t.Fatalf("distinct strings share id %d", a)
	}
	if got := ID("intern-test-a"); got != a {
		t.Fatalf("re-intern changed id: %d then %d", a, got)
	}
	if got := String(a); got != "intern-test-a" {
		t.Fatalf("String(%d) = %q", a, got)
	}
	if Size() < 2 {
		t.Fatalf("Size() = %d after two interns", Size())
	}
}

func TestIDDetachesFromCallerBuffer(t *testing.T) {
	buf := []byte("intern-test-buffer")
	id := ID(string(buf[:13])) // "intern-test-b" + "uffer" sliced off
	copy(buf, "XXXXXXXXXXXXXXXXXX")
	if got := String(id); got != "intern-test-b" {
		t.Fatalf("interned string mutated through caller buffer: %q", got)
	}
}

func TestConcurrentInternAgree(t *testing.T) {
	const goroutines, words = 8, 64
	ids := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]uint32, words)
			for w := 0; w < words; w++ {
				word := fmt.Sprintf("intern-test-race-%d", w)
				ids[g][w] = ID(word)
				if got := String(ids[g][w]); got != word {
					t.Errorf("String(ID(%q)) = %q", word, got)
				}
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for w := 0; w < words; w++ {
			if ids[g][w] != ids[0][w] {
				t.Fatalf("goroutines disagree on id for word %d: %d vs %d", w, ids[0][w], ids[g][w])
			}
		}
	}
}

// TestCacheAgreesWithTable checks that caches hand out the table's ids:
// on first sight and on repeats, from goroutines that each own a cache
// while others intern through the table, and through a nil cache. A
// cache, like the table, keeps its own copy of each string.
func TestCacheAgreesWithTable(t *testing.T) {
	const goroutines, words = 8, 64
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Cache
			for round := range 2 {
				for w := 0; w < words; w++ {
					word := fmt.Sprintf("intern-test-cache-%d", w)
					var got uint32
					if g%2 == 0 {
						got = c.ID(word)
					} else {
						got = ID(word)
					}
					if got != ID(word) {
						t.Errorf("goroutine %d, round %d: id %d for %q, table has %d", g, round, got, word, ID(word))
					}
				}
			}
		}()
	}
	wg.Wait()

	var nilCache *Cache
	if got, want := nilCache.ID("intern-test-cache-0"), ID("intern-test-cache-0"); got != want {
		t.Fatalf("nil cache: id %d, table has %d", got, want)
	}

	var c Cache
	buf := []byte("intern-test-cache-buffer")
	id := c.ID(string(buf[:19])) // "intern-test-cache-b"
	copy(buf, "XXXXXXXXXXXXXXXXXXXXXXXX")
	if got := c.ID("intern-test-cache-b"); got != id {
		t.Fatalf("cache lost its entry when the caller's buffer changed: id %d, first %d", got, id)
	}
	if got := String(id); got != "intern-test-cache-b" {
		t.Fatalf("interned string mutated through caller buffer: %q", got)
	}
}

func TestMixPairOrderSensitive(t *testing.T) {
	if MixPair(1, 2) == MixPair(2, 1) {
		t.Fatal("MixPair is commutative; rolling digests would not see order")
	}
	if Mix64(0) == Mix64(1) {
		t.Fatal("Mix64 collides on 0 and 1")
	}
}
