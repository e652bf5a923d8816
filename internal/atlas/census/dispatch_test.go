package census

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcons/internal/atlas"
	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/obs"
	"rcons/internal/spec"
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

// TestCensusStopsAtFirstError: a classification that fails mid-run
// ends Run with its error, and a classification during which the run's
// context is cancelled ends it with ctx.Err(); either way the workers
// claim no further item. At one worker exactly the classifications up
// to that one run; at three, far fewer than the items.
func TestCensusStopsAtFirstError(t *testing.T) {
	const failAt = 5
	errInjected := errors.New("injected classification failure")
	defer func(orig func(*engine.Worker, context.Context, spec.Type, int) (checker.Classification, error)) {
		classify = orig
	}(classify)
	o := smallOpts()
	items, _, _, err := generate(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, cancelRun := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			classify = func(w *engine.Worker, ctx context.Context, typ spec.Type, limit int) (checker.Classification, error) {
				if calls.Add(1) == failAt {
					if !cancelRun {
						return checker.Classification{}, errInjected
					}
					cancel()
				}
				return w.Classify(context.WithoutCancel(ctx), typ, limit)
			}
			o.Workers = workers
			o.Engine = engine.New(engine.Options{Workers: workers})
			_, err := Run(ctx, o)
			cancel()
			want := errInjected
			if cancelRun {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Fatalf("cancel=%v workers=%d: Run returned %v, want %v", cancelRun, workers, err, want)
			}
			got := calls.Load()
			if workers == 1 && got != failAt || got >= int64(len(items)) {
				t.Fatalf("cancel=%v workers=%d: %d of %d items classified, the run ended at classification %d",
					cancelRun, workers, got, len(items), failAt)
			}
		}
	}
}
