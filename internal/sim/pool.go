package sim

import (
	"iter"

	"rcons/internal/intern"
)

// Pool keeps idle process coroutines between executions. A runner built
// by Pool.NewRunner starts its processes on coroutines from the pool and
// gives them back when its execution finishes or is closed, so a caller
// that runs many executions one after another — a model-checker worker —
// sets up each coroutine once, and its stack grows once, instead of once
// per process and execution.
//
// The pool also caches the interned ids of the values, operations,
// responses and states its runners fold into memory and event digests
// (an intern.Cache), so repeats skip the process-wide table's lock.
//
// A pool serves one goroutine at a time: the runners built from it must
// be driven by one goroutine at a time, and its owner closes it when
// done. Close ends every idle coroutine; after Close the pool keeps
// nothing, so a coroutine given back to it later ends at once and its
// runners intern through the table directly. Either way no coroutine
// outlives its pool. The zero Pool is ready to use.
type Pool struct {
	idle   []*coro
	ids    intern.Cache
	closed bool
}

// cache returns the pool's id cache, or nil (the process-wide table)
// once the pool is closed.
func (pl *Pool) cache() *intern.Cache {
	if pl.closed {
		return nil
	}
	return &pl.ids
}

// get returns an idle coroutine, or a new one when none is idle.
func (pl *Pool) get() *coro {
	if n := len(pl.idle); n > 0 {
		c := pl.idle[n-1]
		pl.idle = pl.idle[:n-1]
		return c
	}
	return newCoro()
}

// put takes back an idle coroutine: it keeps it for the next execution,
// or ends it when the pool is closed.
func (pl *Pool) put(c *coro) {
	if pl.closed {
		c.stop()
		return
	}
	pl.idle = append(pl.idle, c)
}

// Close ends every idle coroutine of the pool. Coroutines still held by
// a runner end when that runner finishes or is closed.
func (pl *Pool) Close() {
	pl.closed = true
	for _, c := range pl.idle {
		c.stop()
	}
	pl.idle = nil
	pl.ids = intern.Cache{}
}

// coro is one process coroutine. It runs the procLoop of each process
// assigned to it, one after another, and parks idle in between; stopping
// it while idle ends it. Resuming it reports true when the process parks
// at a scheduling point and false when the process has finished and the
// coroutine is idle again.
type coro struct {
	next func() (bool, bool)
	stop func()
	ps   *procState // the process to run; set while the coroutine is idle
}

func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(bool) bool) {
		for {
			c.ps.procLoop(yield)
			c.ps = nil
			if !yield(false) {
				return
			}
		}
	})
	return c
}
