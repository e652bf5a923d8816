// Package flight provides context-aware request coalescing
// (singleflight): concurrent callers that ask for the same key share
// one computation instead of multiplying the load. It generalizes the
// ad-hoc in-flight dedup rcserve's atlas handler used to carry, with
// the same two guarantees that made that code correct under failure:
//
//   - A leader's error is never shared. Followers waiting on a failed
//     computation do not inherit the error (which may be specific to
//     the leader's request — a cancelled context, a hit deadline);
//     instead one of them becomes the new leader and recomputes, so a
//     transient failure neither hangs the queue nor gets cached.
//   - A waiting follower whose own context ends stops waiting
//     immediately and returns its context's error, leaving the leader
//     (and the other followers) undisturbed.
//
// Values are shared across goroutines, so V should be immutable once
// returned (rcserve coalesces encoded JSON payloads — []byte that are
// written, never mutated).
package flight

import (
	"context"
	"sync"

	"rcons/internal/obs"
)

// call is one in-flight computation. The leader fills val/err, removes
// the call from the group's map and then closes done; followers that
// observe err != nil re-enter the map and race to lead a fresh attempt.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group coalesces concurrent Do calls by key. The zero value is ready
// to use. A Group must not be copied after first use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// Do returns the result of fn for key, ensuring that at any moment at
// most one execution of fn per key is in flight. The caller that starts
// the execution is the leader; callers that arrive while it runs are
// followers and wait. On leader success every follower receives the
// leader's value with shared=true. On leader failure the error is
// returned to the leader alone and each follower retries — the first
// one in becomes the new leader. A follower whose ctx is done while
// waiting returns ctx.Err() without waiting further.
//
// fn receives the leader's context, carrying the flight.lead span, so
// spans fn starts are children of flight.lead. fn itself is responsible
// for honouring that context; Do does not abort a running fn when
// followers leave.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (v V, shared bool, err error) {
	for {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = map[string]*call[V]{}
		}
		c, running := g.calls[key]
		if !running {
			c = &call[V]{done: make(chan struct{})}
			g.calls[key] = c
			g.mu.Unlock()

			// Leader: the computation runs on this caller's trace, under
			// the flight.lead span. The span makes "this request paid
			// for the work" visible next to the followers' flight.wait
			// spans, and its self time excludes the work's own spans.
			lctx, span := obs.StartSpan(ctx, "flight.lead")
			c.val, c.err = fn(lctx)
			if c.err != nil {
				span.MarkError()
			}
			span.End()
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
			return c.val, false, c.err
		}
		g.mu.Unlock()

		_, wait := obs.StartSpan(ctx, "flight.wait")
		select {
		case <-c.done:
			wait.End()
			if c.err == nil {
				return c.val, true, nil
			}
			// The leader failed. Its call is already out of the map, so
			// looping re-checks for (or becomes) a fresh leader. Respect
			// this caller's own context between attempts.
			if cerr := ctx.Err(); cerr != nil {
				var zero V
				return zero, false, cerr
			}
		case <-ctx.Done():
			wait.MarkError()
			wait.End()
			var zero V
			return zero, false, ctx.Err()
		}
	}
}

// Pending reports whether a computation for key is currently in flight
// (for tests and introspection; the answer may be stale by return).
func (g *Group[V]) Pending(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.calls[key]
	return ok
}
