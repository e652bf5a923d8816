package census

import (
	"context"
	"sync"
	"time"
)

// itemDeadline is one census worker's per-item context: the census's
// ctx with a deadline that one reusable timer enforces. start arms it
// for an item and finish disarms it. A timer fire that lands after
// finish, or after the next start re-armed it for a later deadline, is
// stale and ignored, so it cannot cancel the next item. The done
// channel is replaced only after a fired deadline closed it, and the
// parent's cancellation reaches every item through one context.AfterFunc
// registered for the worker's lifetime.
//
// Each start hands out d as a new item's context, so Done may return a
// different channel from one item to the next: an item must not keep
// its context once it has returned, and the census's classify does
// not. Against a context.WithTimeout per item, this raised census-cold
// work_per_s 15% (10 of 10 alternating pairs at 15 s, 2 vCPUs).
type itemDeadline struct {
	parent     context.Context
	timer      *time.Timer // nil until the first start
	stopParent func() bool

	mu       sync.Mutex
	deadline time.Time
	active   bool // an item runs between start and finish
	done     chan struct{}
	err      error // set when done is closed
}

var _ context.Context = (*itemDeadline)(nil)

func newItemDeadline(parent context.Context) *itemDeadline {
	d := &itemDeadline{parent: parent, done: make(chan struct{})}
	d.stopParent = context.AfterFunc(parent, d.cancelParent)
	return d
}

// start arms d for an item that must finish within timeout, and
// returns d as the item's context.
func (d *itemDeadline) start(timeout time.Duration) context.Context {
	d.mu.Lock()
	if d.err != nil && d.parent.Err() == nil {
		// A fired deadline closed done; the parent's cancellation keeps
		// it closed for every later item.
		d.done, d.err = make(chan struct{}), nil
	}
	d.deadline, d.active = time.Now().Add(timeout), true
	d.mu.Unlock()
	if time.Until(d.deadline) <= 0 {
		d.fire() // already past, as context.WithTimeout finds it
	}
	if d.timer == nil {
		d.timer = time.AfterFunc(timeout, d.fire)
	} else {
		d.timer.Reset(timeout)
	}
	return d
}

// finish disarms d once its item has returned.
func (d *itemDeadline) finish() {
	d.mu.Lock()
	d.active = false
	d.mu.Unlock()
	d.timer.Stop()
}

// stop releases d's timer and its hold on the parent; d is not used
// after.
func (d *itemDeadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
	}
	d.stopParent()
}

// fire is the timer's function: it ends the running item once its
// deadline has passed, and ignores a stale fire.
func (d *itemDeadline) fire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.active && d.err == nil && !time.Now().Before(d.deadline) {
		d.err = context.DeadlineExceeded
		close(d.done)
	}
}

// cancelParent ends the running item, and every later one, when the
// parent is done.
func (d *itemDeadline) cancelParent() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		d.err = d.parent.Err()
		close(d.done)
	}
}

// Deadline implements context.Context: the item's deadline, or the
// parent's when that is earlier.
func (d *itemDeadline) Deadline() (time.Time, bool) {
	d.mu.Lock()
	deadline := d.deadline
	d.mu.Unlock()
	if pd, ok := d.parent.Deadline(); ok && pd.Before(deadline) {
		return pd, true
	}
	return deadline, true
}

// Done implements context.Context.
func (d *itemDeadline) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.done
}

// Err implements context.Context.
func (d *itemDeadline) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Value implements context.Context by delegating to the parent.
func (d *itemDeadline) Value(key any) any { return d.parent.Value(key) }
