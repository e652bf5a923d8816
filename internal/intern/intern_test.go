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

func TestMixPairOrderSensitive(t *testing.T) {
	if MixPair(1, 2) == MixPair(2, 1) {
		t.Fatal("MixPair is commutative; rolling digests would not see order")
	}
	if Mix64(0) == Mix64(1) {
		t.Fatal("Mix64 collides on 0 and 1")
	}
}
