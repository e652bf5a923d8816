package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"rcons/internal/checker"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// TestSearchWitnessAcrossWorkers: on both search paths, the witness for
// every zoo type, property and level is the sequential search's at
// Workers 1, 2, 3 and 8, and also when every worker slot is held
// elsewhere, so the caller searches alone with no helper.
func TestSearchWitnessAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	seq := map[Property]func(spec.Type, int, *checker.SearchOptions) (*checker.Witness, error){
		Recording:  checker.SearchRecording,
		Discerning: checker.SearchDiscerning,
	}
	for _, interp := range []bool{false, true} {
		maxN := 4
		if interp {
			maxN = 3
		}
		engines := map[string]*Engine{}
		for _, w := range []int{1, 2, 3, 8} {
			engines["workers="+strconv.Itoa(w)] = New(Options{Workers: w, Interpreted: interp})
		}
		held := New(Options{Workers: 3, Interpreted: interp})
		for range cap(held.sem) {
			held.sem <- struct{}{}
		}
		engines["slots held"] = held
		for _, typ := range types.Zoo() {
			for n := 2; n <= maxN; n++ {
				for p, search := range seq {
					want, err := search(typ, n, nil)
					if err != nil {
						t.Fatal(err)
					}
					for name, e := range engines {
						got, err := e.Search(ctx, typ, p, n)
						if err != nil || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %v n=%d, %s (interpreted=%v): engine (%v, %v), sequential %v",
								typ.Name(), p, n, name, interp, got, err, want)
						}
					}
				}
			}
		}
		if len(held.sem) != cap(held.sem) {
			t.Fatalf("searches on a full engine changed its slots: %d of %d held", len(held.sem), cap(held.sem))
		}
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held still
// for 50ms, or its last reading after 5s: a goroutine that has signalled
// a WaitGroup may still be exiting when the waiter returns.
func settledGoroutines() int {
	deadline := time.Now().Add(5 * time.Second)
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 50*time.Millisecond && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// goroutinesReach polls runtime.NumGoroutine until it equals want and
// returns it, or returns the last reading after 5s.
func goroutinesReach(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestSearchCancelledMidway: cancelling a long witness-free search while
// the caller and its helpers run returns the context's error promptly
// and leaves no goroutine behind, on both search paths.
func TestSearchCancelledMidway(t *testing.T) {
	typ := types.NewRegister()
	for _, interp := range []bool{false, true} {
		e := New(Options{Workers: 4, Interpreted: interp})
		before := settledGoroutines()
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		w, err := e.Search(ctx, typ, Discerning, 8)
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interpreted=%v: cancelled search returned (%v, %v) after %v", interp, w, err, elapsed)
		}
		// Uncancelled, the search runs for seconds; cancelled, it must
		// stop within a candidate or so of the cancel.
		if elapsed > 2*time.Second {
			t.Fatalf("interpreted=%v: cancelled search took %v to return", interp, elapsed)
		}
		if after := goroutinesReach(before); after != before {
			t.Fatalf("interpreted=%v: goroutines: %d before the search, %d after", interp, before, after)
		}
		if len(e.sem) != 0 {
			t.Fatalf("interpreted=%v: %d worker slots still held", interp, len(e.sem))
		}
	}
}
