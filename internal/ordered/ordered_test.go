package ordered

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineCounts are the widths every concurrent test runs at.
var goroutineCounts = []int{1, 2, 4, 8}

// atomicMin lowers m to v unless it is already lower.
func atomicMin(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v >= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// jitter delays its goroutine at random — yielding a few times, or now
// and then sleeping a few microseconds — so that goroutines claim and
// finish items in an order that varies from run to run.
func jitter(rng *rand.Rand) {
	if rng.IntN(16) == 0 {
		time.Sleep(time.Duration(rng.IntN(20)) * time.Microsecond)
		return
	}
	for range rng.IntN(4) {
		runtime.Gosched()
	}
}

// work runs fn on g goroutines, each with its own random source, and
// returns once all have returned.
func work(g int, seed uint64, fn func(rng *rand.Rand)) {
	var wg sync.WaitGroup
	for k := range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(rand.New(rand.NewPCG(seed, uint64(k))))
		}()
	}
	wg.Wait()
}

// upTo returns a Claim source of the items 0 … n−1.
func upTo(n int) func(int) bool {
	return func(i int) bool { return i < n }
}

// TestLowestIndexWins: whichever order the items finish in, on any
// number of goroutines, the result is the lowest finishing item's.
func TestLowestIndexWins(t *testing.T) {
	const items = 200
	for _, g := range goroutineCounts {
		for trial := range 20 {
			rng := rand.New(rand.NewPCG(uint64(g), uint64(trial)))
			hits := map[int]bool{}
			for range 1 + rng.IntN(5) {
				hits[rng.IntN(items)] = true
			}
			want := items
			for h := range hits {
				want = min(want, h)
			}
			r := New[int](context.Background())
			work(g, uint64(trial), func(rng *rand.Rand) {
				for {
					i, ok := r.Claim(upTo(items))
					if !ok {
						return
					}
					jitter(rng)
					if hits[i] {
						r.Finish(i, i, errors.New("hit "+strconv.Itoa(i)))
					}
				}
			})
			v, err := r.Result()
			if v != want || err == nil || err.Error() != "hit "+strconv.Itoa(want) {
				t.Fatalf("goroutines=%d hits=%v: result (%d, %v), want item %d", g, hits, v, err, want)
			}
		}
	}
}

// TestFinishOrder: finishing the same items in every order leaves the
// lowest one's value and error, also when it finishes first.
func TestFinishOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	items := []int{7, 3, 12, 5, 3000}
	errLow := errors.New("lowest")
	for range 50 {
		rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
		r := New[string](context.Background())
		for _, i := range items {
			var err error
			if i == 3 {
				err = errLow
			}
			r.Finish(i, strconv.Itoa(i), err)
		}
		if v, err := r.Result(); v != "3" || err != errLow {
			t.Fatalf("finish order %v: result (%q, %v), want (3, lowest)", items, v, err)
		}
	}
}

// TestNothingPastTheBoundIsClaimed: a claim started after item h has
// finished never returns an index above h, claims hand out 0, 1, 2, …
// exactly once each, and Claimed counts them.
func TestNothingPastTheBoundIsClaimed(t *testing.T) {
	const items = 300
	for _, g := range goroutineCounts {
		for trial := range 10 {
			rng := rand.New(rand.NewPCG(uint64(g), uint64(100+trial)))
			hits := map[int]bool{rng.IntN(items): true, rng.IntN(items): true}
			r := New[int](context.Background())
			var settled atomic.Int64 // lowest item whose Finish has returned
			settled.Store(math.MaxInt64)
			var (
				mu      sync.Mutex
				claimed = map[int]int{}
			)
			work(g, uint64(trial), func(rng *rand.Rand) {
				for {
					bound := settled.Load()
					i, ok := r.Claim(upTo(items))
					if !ok {
						return
					}
					if int64(i) >= bound {
						t.Errorf("goroutines=%d: claimed item %d after item %d finished", g, i, bound)
					}
					mu.Lock()
					claimed[i]++
					mu.Unlock()
					jitter(rng)
					if hits[i] {
						r.Finish(i, i, nil)
						atomicMin(&settled, int64(i))
					}
				}
			})
			n := r.Claimed()
			if len(claimed) != n {
				t.Fatalf("goroutines=%d: Claimed %d, %d distinct items claimed", g, n, len(claimed))
			}
			for i := range n {
				if claimed[i] != 1 {
					t.Fatalf("goroutines=%d: item %d claimed %d times", g, i, claimed[i])
				}
			}
			low := items
			for h := range hits {
				low = min(low, h)
			}
			if g == 1 && n != low+1 {
				t.Fatalf("one goroutine claimed %d items, want %d: items 0 … %d", n, low+1, low)
			}
		}
	}
}

// TestClaimExhaustedSource: Claim fails once the source has no next
// item, and keeps failing.
func TestClaimExhaustedSource(t *testing.T) {
	r := New[int](context.Background())
	for want := range 3 {
		if i, ok := r.Claim(upTo(3)); !ok || i != want {
			t.Fatalf("claim %d: (%d, %v)", want, i, ok)
		}
	}
	for range 2 {
		if i, ok := r.Claim(upTo(3)); ok {
			t.Fatalf("claimed item %d of an exhausted source", i)
		}
	}
	if n := r.Claimed(); n != 3 {
		t.Fatalf("Claimed %d, want 3", n)
	}
}

// TestObsolete: Obsolete(i) holds exactly for the items above the
// lowest finished one, and for every item once ctx is done.
func TestObsolete(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := New[int](ctx)
	check := func(what string, wantAbove int) {
		t.Helper()
		for i := range 20 {
			if got := r.Obsolete(i); got != (i > wantAbove) {
				t.Fatalf("%s: Obsolete(%d) = %v", what, i, got)
			}
		}
	}
	check("fresh", math.MaxInt)
	r.Finish(9, 9, nil)
	check("after Finish(9)", 9)
	r.Finish(14, 14, nil)
	check("after Finish(14)", 9)
	r.Finish(4, 4, nil)
	check("after Finish(4)", 4)
	cancel()
	check("after cancel", -1)
}

// TestObsoleteConcurrent: while goroutines claim and finish items,
// Obsolete(i) is true only for an item above one that has started
// finishing, and always true for an item above one whose Finish has
// returned.
func TestObsoleteConcurrent(t *testing.T) {
	const items = 300
	for _, g := range goroutineCounts {
		for trial := range 10 {
			rng := rand.New(rand.NewPCG(uint64(g), uint64(200+trial)))
			hits := map[int]bool{rng.IntN(items): true, rng.IntN(items): true, rng.IntN(items): true}
			r := New[int](context.Background())
			// announced is lowered before an item's Finish, settled after.
			var announced, settled atomic.Int64
			announced.Store(math.MaxInt64)
			settled.Store(math.MaxInt64)
			work(g, uint64(trial), func(rng *rand.Rand) {
				for {
					i, ok := r.Claim(upTo(items))
					if !ok {
						return
					}
					for range 3 {
						jitter(rng)
						j := rng.IntN(items)
						before := settled.Load()
						obsolete := r.Obsolete(j)
						after := announced.Load()
						if obsolete && int64(j) <= after {
							t.Errorf("goroutines=%d: Obsolete(%d) with no lower item finishing (lowest %d)", g, j, after)
						}
						if !obsolete && int64(j) > before {
							t.Errorf("goroutines=%d: item %d not obsolete after item %d finished", g, j, before)
						}
					}
					if hits[i] {
						atomicMin(&announced, int64(i))
						r.Finish(i, i, nil)
						atomicMin(&settled, int64(i))
					}
				}
			})
		}
	}
}

// TestCancelledContext: cancelling ctx while goroutines work stops
// every claim and makes Result return ctx's error, even when an item
// has finished; a run on an already cancelled ctx claims nothing.
func TestCancelledContext(t *testing.T) {
	for _, g := range goroutineCounts {
		ctx, cancel := context.WithCancel(context.Background())
		r := New[int](ctx)
		var claims atomic.Int64
		work(g, uint64(g), func(rng *rand.Rand) {
			for {
				i, ok := r.Claim(func(int) bool { return true })
				if !ok {
					return
				}
				jitter(rng)
				if claims.Add(1) == 100 {
					r.Finish(i, i, nil)
					cancel()
				}
				if claims.Load() > 100_000 {
					t.Error("claims go on after cancel")
					return
				}
			}
		})
		if v, err := r.Result(); !errors.Is(err, context.Canceled) || v != 0 {
			t.Fatalf("goroutines=%d: cancelled run returned (%d, %v)", g, v, err)
		}
		if _, ok := r.Claim(func(int) bool { return true }); ok {
			t.Fatalf("goroutines=%d: claimed after cancel", g)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := New[int](ctx)
	if _, ok := r.Claim(func(int) bool { return true }); ok {
		t.Fatal("claimed on a cancelled context")
	}
	if _, err := r.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result on a cancelled context: %v", err)
	}
}
