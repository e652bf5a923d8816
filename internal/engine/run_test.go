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
	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// TestSearchWitnessAcrossWorkers: on both search paths, the witness for
// every zoo type, property and level is the sequential search's at
// Workers 1, 2, 3 and 8, and also when every worker slot is held
// elsewhere, so the caller searches alone with no helper.
func TestSearchWitnessAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	seq := map[Property]func(spec.Type, int) (*checker.Witness, error){
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
		for range cap(held.slots) {
			<-held.slots
		}
		engines["slots held"] = held
		for _, typ := range types.Zoo() {
			for n := 2; n <= maxN; n++ {
				for p, search := range seq {
					want, err := search(typ, n)
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
		if len(held.slots) != 0 {
			t.Fatalf("searches on a full engine changed its slots: %d of %d free", len(held.slots), cap(held.slots))
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
// and leaves no goroutine behind, on both settings of Interpreted.
func TestSearchCancelledMidway(t *testing.T) {
	for _, interp := range []bool{false, true} {
		checkCancelled(t, New(Options{Workers: 4, Interpreted: interp}), types.NewRegister(), 8)
	}
}

// dupRegister is a register whose alphabet repeats its first write, so
// its table fails compile.Searchable and the engine searches it on the
// sequential path.
type dupRegister struct{ *types.Register }

func (dupRegister) Name() string { return "dup-register" }

func (d dupRegister) OpsFor(n int) []spec.Op {
	ops := d.Register.OpsFor(n)
	return append(ops, ops[0])
}

// TestSequentialSearchCancelled: a level without a searchable table
// runs checker.Search under the request's ctx, so cancelling it returns
// context.Canceled promptly, with no goroutine left and no worker slot
// held, on both settings of Interpreted.
func TestSequentialSearchCancelled(t *testing.T) {
	typ := dupRegister{types.NewRegister()}
	const n = 8
	if tab, err := compile.Table(typ, n); err != nil || tab.Searchable() == nil {
		t.Fatalf("%s n=%d: want a table that fails Searchable, got err %v", typ.Name(), n, err)
	}
	for _, interp := range []bool{false, true} {
		checkCancelled(t, New(Options{Workers: 4, Interpreted: interp}), typ, n)
	}
}

// checkCancelled cancels e's discerning search of typ among n processes
// 20ms in, which must be witness-free and run for seconds uncancelled.
// The search must return context.Canceled promptly, leave no goroutine
// behind and hold no worker slot.
func checkCancelled(t *testing.T, e *Engine, typ spec.Type, n int) {
	t.Helper()
	name := typ.Name() + " interpreted=" + strconv.FormatBool(e.interpreted)
	before := settledGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	w, err := e.Search(ctx, typ, Discerning, n)
	elapsed := time.Since(start)
	timer.Stop()
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: cancelled search returned (%v, %v) after %v", name, w, err, elapsed)
	}
	// Uncancelled, the search runs for seconds; cancelled, it must stop
	// within a candidate or so of the cancel.
	if elapsed > 2*time.Second {
		t.Fatalf("%s: cancelled search took %v to return", name, elapsed)
	}
	if after := goroutinesReach(before); after != before {
		t.Fatalf("%s: goroutines: %d before the search, %d after", name, before, after)
	}
	if held := cap(e.slots) - len(e.slots); held != 0 {
		t.Fatalf("%s: %d worker slots still held", name, held)
	}
}
