package census

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/spec"
)

// TestItemDeadlineIgnoresStaleFire: a timer fire that lands after its
// item finished, or after the next item re-armed the deadline for later,
// leaves the next item's context live; a deadline already past when
// armed ends its item at once, and the item after it gets a live
// context again.
func TestItemDeadlineIgnoresStaleFire(t *testing.T) {
	d := newItemDeadline(context.Background())
	defer d.stop()
	d.start(time.Hour)
	d.finish()
	d.fire() // lands after its item finished
	ctx := d.start(time.Hour)
	d.fire() // lands after the re-arm for a later deadline
	if err := ctx.Err(); err != nil {
		t.Fatalf("a stale fire ended the next item: %v", err)
	}
	d.finish()
	ctx = d.start(time.Nanosecond)
	<-ctx.Done()
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("an expired item's context reports %v", err)
	}
	d.finish()
	ctx = d.start(time.Hour)
	select {
	case <-ctx.Done():
		t.Fatalf("the item after an expired one starts done: %v", ctx.Err())
	default:
	}
	d.finish()
}

// TestCensusDeadlineRearms: on one worker, each item whose
// classification outlives the per-item deadline lands in Skipped, and
// the same worker classifies every other item exactly as a run without
// the blocks does, so its reused deadline fires again after a fire and
// no fire reaches a later item. A parent cancelled mid-run reaches the
// item blocked on it, and Run returns ctx.Err(). No timer or
// context.AfterFunc goroutine outlives the runs.
func TestCensusDeadlineRearms(t *testing.T) {
	defer func(orig func(*engine.Worker, context.Context, spec.Type, int) (checker.Classification, error)) {
		classify = orig
	}(classify)
	before := settledGoroutines()
	o := smallOpts()
	o.Workers = 1
	o.Engine = engine.New(engine.Options{Workers: 1})
	want, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	items, _, _, err := generate(o)
	if err != nil {
		t.Fatal(err)
	}

	blocked := []int{2, 5}
	var calls atomic.Int64
	classify = func(w *engine.Worker, ictx context.Context, typ spec.Type, limit int) (checker.Classification, error) {
		k := int(calls.Add(1) - 1)
		if slices.Contains(blocked, k) {
			<-ictx.Done()
			return checker.Classification{}, ictx.Err()
		}
		if err := ictx.Err(); err != nil {
			t.Errorf("item %d starts with a done context: %v", k, err)
		}
		return w.Classify(ictx, typ, limit)
	}
	o.Timeout = 200 * time.Millisecond
	got, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var skipped []string
	for _, k := range blocked {
		skipped = append(skipped, items[k].key)
	}
	slices.Sort(skipped)
	if !slices.Equal(got.Skipped, skipped) {
		t.Fatalf("skipped %v, want the blocked items %v", got.Skipped, skipped)
	}
	for key, row := range want.Rows {
		if r, ok := got.Rows[key]; slices.Contains(skipped, key) == ok || ok && !reflect.DeepEqual(r, row) {
			t.Fatalf("row %s: %+v (present %v), want %+v", key, r, ok, row)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls.Store(0)
	classify = func(w *engine.Worker, ictx context.Context, typ spec.Type, limit int) (checker.Classification, error) {
		if calls.Add(1) == 4 {
			cancel()
			<-ictx.Done()
			return checker.Classification{}, ictx.Err()
		}
		return w.Classify(ictx, typ, limit)
	}
	o.Timeout = time.Minute
	start := time.Now()
	if _, err := Run(ctx, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v after a mid-run cancel, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Run took %v: the cancel did not reach the blocked item", d)
	}
	if after := settledGoroutines(); after > before {
		t.Fatalf("%d goroutines before the runs, %d after", before, after)
	}
}
