package census

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"rcons/internal/atlas"
	"rcons/internal/engine"
	"rcons/internal/obs"
)

// TestCensusTimeoutSkipsEveryType: a per-type deadline that has always
// passed records every generated type under Skipped, in sorted order,
// classifies none, and fails nothing.
func TestCensusTimeoutSkipsEveryType(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := smallOpts()
		o.Workers = workers
		o.Engine = engine.New(engine.Options{Workers: workers})
		o.Timeout = time.Nanosecond
		a, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := a.Generated - a.Duplicates; len(a.Skipped) != want || a.Types != 0 || len(a.Rows) != 0 {
			t.Fatalf("workers=%d: %d skipped, %d types, %d rows; want all %d generated types skipped",
				workers, len(a.Skipped), a.Types, len(a.Rows), want)
		}
		if !sort.StringsAreSorted(a.Skipped) {
			t.Fatalf("workers=%d: Skipped is not sorted", workers)
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

// TestCensusCancelledMidRun: cancelling the context once some rows are
// classified ends Run promptly with ctx.Err(), and no goroutine of the
// run outlives it.
func TestCensusCancelledMidRun(t *testing.T) {
	before := settledGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		once      sync.Once
		cancelled time.Time
		done      int64
	)
	o := Options{
		Bounds:           atlas.Bounds{States: 3, Ops: 2, Resps: 2},
		Random:           300,
		Seed:             3,
		Limit:            4,
		Workers:          2,
		Engine:           engine.New(engine.Options{Workers: 2}),
		ProgressInterval: time.Millisecond,
		Progress: obs.SinkFunc(func(p obs.Progress) {
			if p.RowsDone > 0 && !p.Final {
				once.Do(func() {
					cancelled, done = time.Now(), p.RowsDone
					cancel()
				})
			}
		}),
	}
	a, err := Run(ctx, o)
	if err == nil {
		t.Fatalf("Run finished all %d types before the cancel", a.Types)
	}
	if err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if d := time.Since(cancelled); d > 2*time.Second {
		t.Fatalf("Run returned %v after the cancel (at %d rows done)", d, done)
	}
	if after := settledGoroutines(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before Run, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
