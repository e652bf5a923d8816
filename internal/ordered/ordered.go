// Package ordered runs a first-hit search over items in a fixed order on
// any number of goroutines and returns the hit the sequential search
// would: the lowest-indexed item that ended the search.
//
// A Run is one such search's shared state. Goroutines claim item indices
// in order, and one atomic bound holds the index of the lowest item known
// to end the search, with a result value or an error. An item past the
// bound is never claimed, and a running one polls Obsolete to abandon
// itself, while items before the bound run on: they could still hold
// the first hit in order. So the result is independent of the number of
// goroutines and of their scheduling.
//
// The engine's witness searches (one item per shard) and the model
// checker's root and swarm searches (one item per root subtree, one per
// random schedule) run on it.
package ordered

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// Run is the shared state of one ordered search for a result of type T.
// Its methods are safe for concurrent use.
type Run[T any] struct {
	ctx  context.Context
	done <-chan struct{}
	best atomic.Int64 // lowest finished index; MaxInt64 while none is

	mu   sync.Mutex // guards next, the claimed source and the result
	next int
	v    T     // item best's value
	err  error // item best's error
}

// New returns a Run that stops claiming, and makes every item obsolete,
// once ctx is done.
func New[T any](ctx context.Context) *Run[T] {
	r := new(Run[T])
	r.Reset(ctx)
	return r
}

// Reset makes r a fresh run under ctx, as New does, for a caller that
// keeps one Run across searches. No goroutine may be working on r.
func (r *Run[T]) Reset(ctx context.Context) {
	var zero T
	r.ctx, r.done, r.next, r.v, r.err = ctx, ctx.Done(), 0, zero, nil
	r.best.Store(math.MaxInt64)
}

// Obsolete reports whether item i can no longer change the result: a
// lower item has ended the search, or ctx is done.
func (r *Run[T]) Obsolete(i int) bool {
	return r.best.Load() < int64(i) || closed(r.done)
}

// Claim reserves the next item index. It calls advance(i) under the
// lock, so a caller's item source moves to item i in claim order;
// advance reports false when the source has no item i. Claim fails
// when the source is exhausted, when the next index is past the bound,
// or when ctx is done.
func (r *Run[T]) Claim(advance func(i int) bool) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int64(r.next) >= r.best.Load() || closed(r.done) || !advance(r.next) {
		return 0, false
	}
	r.next++
	return r.next - 1, true
}

// Claimed returns the number of items claimed so far.
func (r *Run[T]) Claimed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Finish records that item i ended the search with v or err, unless a
// lower item already has.
func (r *Run[T]) Finish(i int, v T, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int64(i) < r.best.Load() {
		r.best.Store(int64(i))
		r.v, r.err = v, err
	}
}

// Result returns ctx's error when ctx is done, else the lowest finished
// item's value and error, or the zero T when no item finished. Call it
// after every goroutine working on the run has returned.
func (r *Run[T]) Result() (T, error) {
	if err := r.ctx.Err(); err != nil {
		var zero T
		return zero, err
	}
	return r.v, r.err
}

// closed reports whether done is closed; a nil channel never is.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
