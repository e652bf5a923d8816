// Package engine is the concurrent classification engine layered over
// package checker. It answers the same questions — "is type T
// n-recording / n-discerning, and what cons/rcons bands follow?" — but
// partitions each exhaustive witness search into independent shards
// (checker.ShardCursor over a compiled table), checks them
// (checker.IndexSearch) on the calling goroutine plus helpers for idle
// worker slots, and stops early once a witness is found. A level
// without a searchable table (its states exceed compile.StateCap, a
// transition fails, or compile.Searchable rejects it, as for read-only)
// runs checker.Search, the sequential search, on the calling goroutine.
// The engine keeps no memo of its own: callers that repeat queries keep
// their answers (rcserve's response memo). With a persistent store
// attached, every per-(property, n) search result is read from and
// written through to it. A Classify call builds each compiled table
// (package compile) it needs once: one per level its scans reach for a
// type with spec.OpsForN, and one shared by every level for any other
// type, whose alphabet is the same at every n. The table supplies the
// store key, the symmetry-pruning group and the search itself.
//
// All search state belongs to Workers. A Worker holds one goroutine's
// level tables (built into storage the Worker keeps), its current
// search's cursor, ordered run and orbit set, and the shard scratch
// that it and its search's helpers check shards with, and resets each
// per use, as sim.Runner.Reset does for mc. Each, the engine's one
// batch loop, holds a Worker, and a worker slot when one is free, per
// goroutine for the whole batch, so a ClassifyEach batch or a census
// classifies type after type without allocating search state or
// starting helpers on its own goroutines' slots; a direct Classify or
// Search call holds a Worker for the call. A Worker not in use waits in
// the engine's idle pool (a sync.Pool), where a later call takes it up,
// or the garbage collector frees it if none does.
//
// Classify runs its two scans one after the other, the discerning scan
// first. An n-recording type is n-discerning (Observation 5 of the
// paper), so the recording scan searches only the levels up to the
// discerning maximum and answers every level above it "no witness"
// without a search or a store read. Each search still fans out over
// the worker slots free when it starts.
//
// Determinism: a search runs on an ordered.Run, one item per shard. Its
// goroutines claim shards in enumeration order and share one atomic
// bound, the index of the lowest shard known to end the search (with a
// witness or an error). Shards past the bound are not claimed and
// running ones abandon themselves at their next candidate, while
// earlier shards run to completion because they could still yield the
// first witness in order. So the engine returns exactly the witness the
// sequential search would, independent of worker count and scheduling.
// Classification results are therefore byte-identical to
// checker.Classify (asserted over the whole zoo by
// TestEngineMatchesSequentialZoo).
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rcons/internal/checker"
	"rcons/internal/compile"
	"rcons/internal/obs"
	"rcons/internal/ordered"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// Property selects which of the paper's two structural properties a
// search targets.
type Property int

const (
	// Recording is the n-recording property (Definition 4).
	Recording Property = iota
	// Discerning is the n-discerning property (Definition 2).
	Discerning
)

// String implements fmt.Stringer.
func (p Property) String() string {
	switch p {
	case Recording:
		return "recording"
	case Discerning:
		return "discerning"
	}
	return fmt.Sprintf("Property(%d)", int(p))
}

// ParseProperty resolves the names used by CLI flags and rcserve query
// parameters.
func ParseProperty(s string) (Property, error) {
	switch s {
	case "recording", "rec":
		return Recording, nil
	case "discerning", "disc":
		return Discerning, nil
	}
	return 0, fmt.Errorf("engine: unknown property %q (want recording or discerning)", s)
}

// verify returns the interpreted verifier of p, a valid property.
func (p Property) verify() checker.VerifyFunc {
	if p == Recording {
		return checker.VerifyRecording
	}
	return checker.VerifyDiscerning
}

// Options configures an Engine. The zero value gives one worker per CPU.
type Options struct {
	// Workers is the engine-wide number of worker slots, shared by all
	// concurrent searches; ≤ 0 means runtime.GOMAXPROCS(0). A goroutine
	// of Each holds a slot, when one was free as Each began, for its
	// whole batch. A search runs on its calling goroutine, which otherwise
	// takes a slot for the search when one is free, plus a helper for
	// each further slot free when it starts. ClassifyEach runs up to
	// Workers classifications at once.
	Workers int
	// Persist, when non-nil, is a persistent result store for the
	// per-(property, n) searches: each search consults it before
	// computing, and every computed result is written through — so
	// search results survive restarts and are shared by every binary
	// opening the same store.
	Persist Persist
	// Interpreted checks every shard with the interpreted verifier on
	// the type itself (checker.NewInterpretedSearch) instead of the
	// compiled core, with symmetric-shard pruning off; the shard loop,
	// its order and its fan-out over worker slots stay the same. It is
	// the compiled core's parity oracle: results must be bit-identical
	// either way. It is kept for that oracle, which the parity tests
	// and rcperf's census-cold reference run on: a sequential
	// checker.Classify scan would cost that reference its shard
	// parallelism.
	Interpreted bool
}

// Engine runs sharded witness searches and classifications. It is safe
// for concurrent use; one Engine is meant to be shared (e.g. by all
// rcserve requests) so that its worker slots bound them all.
type Engine struct {
	workers int
	// slots holds a token per free engine-wide worker slot; the bound
	// covers every search at once, not each one. Each takes a slot for
	// each of its goroutines, as many as are free, before it starts any
	// of them, and a goroutine frees its slot when it ends; any other
	// search's caller takes one for the search if one is free. Either
	// way the caller searches, and helpers start only on slots free when
	// its search starts, so the goroutines searching never exceed the
	// callers plus `workers`, and a full-width batch (a census,
	// ClassifyEach on an otherwise idle engine) runs each search on its
	// caller alone.
	slots   chan struct{}
	idle    sync.Pool // *Worker, each not in use
	persist Persist   // nil when no persistent store is attached
	pstats  persistStats
	// classified counts the classifications Classify has derived.
	classified atomic.Int64
	// helpers counts the helper goroutines searches have started; only
	// tests read it.
	helpers atomic.Int64

	// interpreted checks shards with the interpreted verifier.
	interpreted bool
}

// New builds an Engine from opts.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers:     w,
		slots:       make(chan struct{}, w),
		persist:     opts.Persist,
		interpreted: opts.Interpreted,
	}
	for range w {
		e.slots <- struct{}{}
	}
	return e
}

// takeSlot takes a free worker slot and reports whether one was free.
// The holder gives it back with freeSlot.
func (e *Engine) takeSlot() bool {
	select {
	case <-e.slots:
		return true
	default:
		return false
	}
}

func (e *Engine) freeSlot() { e.slots <- struct{}{} }

// CacheStats reports the engine's cumulative classification count and
// the persistent store's search counters.
type CacheStats struct {
	// Classifications counts the classifications Classify has derived.
	Classifications int64 `json:"classifications"`
	// PersistHits / PersistMisses count searches that were / were not
	// answered by the persistent result store (zero without one);
	// PersistErrors counts store reads or writes that failed (the search
	// proceeds regardless).
	PersistHits   int64 `json:"persistHits"`
	PersistMisses int64 `json:"persistMisses"`
	PersistErrors int64 `json:"persistErrors"`
}

// Workers returns the configured worker-pool width.
func (e *Engine) Workers() int { return e.workers }

// Stats returns the engine's cumulative counters.
func (e *Engine) Stats() CacheStats {
	return CacheStats{
		Classifications: e.classified.Load(),
		PersistHits:     e.pstats.hits.Load(),
		PersistMisses:   e.pstats.misses.Load(),
		PersistErrors:   e.pstats.errors.Load(),
	}
}

// PublishProgress starts periodic publication of the engine's
// cumulative counters (classifications as the work unit, the persist
// hit ratio) to sink, tagged with the given trace ID. The returned stop
// function flushes one final sample and waits for the publisher to
// exit; a nil sink makes both no-ops. interval ≤ 0 means 1s.
func (e *Engine) PublishProgress(interval time.Duration, sink obs.Sink, trace string) (stop func()) {
	start := time.Now()
	return obs.PublishEvery(interval, sink, func() obs.Progress {
		s := e.Stats()
		nodes := s.Classifications
		elapsed := time.Since(start)
		var rate float64
		if secs := elapsed.Seconds(); secs > 0 {
			rate = float64(nodes) / secs
		}
		return obs.Progress{
			Task:          "engine",
			TraceID:       trace,
			Nodes:         nodes,
			NodesPerSec:   rate,
			PersistHits:   s.PersistHits,
			PersistMisses: s.PersistMisses,
			Elapsed:       elapsed,
		}
	})
}

// Search looks for a witness of property p for type t among n processes,
// verifying enumeration shards concurrently. It returns nil when no
// witness exists over the candidate sets — the same exhaustive guarantee
// as the sequential checker searches. With a persistent store attached,
// results (including negative ones) are read from and written through
// to it under the type's exact fingerprint, so they survive restarts;
// Search itself memoizes nothing.
func (e *Engine) Search(ctx context.Context, t spec.Type, p Property, n int) (*checker.Witness, error) {
	tab, _ := compile.Table(t, n)
	w := e.hold(0)
	defer e.idle.Put(w)
	return w.search(ctx, t, p, n, newLevel(tab, n, e.persist != nil))
}

// Worker is the search state of one goroutine classifying on an
// engine: its current Classify call's levels and their tables, its
// current search's shared state, and the shard scratch that it and its
// search's helpers check shards with. It resets each of them per use,
// so a warm Worker classifies a Dense type without allocating beyond
// the witnesses it returns. A Worker is held by one goroutine at a
// time: Each holds one per goroutine, and Engine.Classify and Search
// one per call.
type Worker struct {
	e      *Engine
	index  int
	levels levelTables
	shards shardSearch
	// scratch[0] is the caller's; scratch[h] is helper h's, for the
	// at most `workers` helpers of one search.
	scratch []shardScratch
	// slot says w's goroutine holds a worker slot for its whole Each
	// batch, so its searches take none of their own.
	slot bool
}

// hold takes an idle Worker of e, or builds one, for the goroutine at
// index; the holder puts it back in e.idle once done with it.
func (e *Engine) hold(index int) *Worker {
	w, _ := e.idle.Get().(*Worker)
	if w == nil {
		w = &Worker{e: e, scratch: make([]shardScratch, e.workers+1)}
	}
	w.index = index
	return w
}

// Index returns w's position among the goroutines of its Each call, so
// that a caller can keep state per goroutine.
func (w *Worker) Index() int { return w.index }

// level is one process count's compiled table and, when a key needs
// it, its exact fingerprint. tab is nil when the type has no table (the
// state space exceeds compile.StateCap or a transition fails); fp is ""
// whenever nothing is keyed on it.
type level struct {
	tab *compile.Compiled
	fp  string
}

// newLevel is the level of table tab at n; tab is nil when the type
// has no table.
func newLevel(tab *compile.Compiled, n int, keyed bool) level {
	l := level{tab: tab}
	if keyed && tab != nil {
		l.fp = fingerprint(tab, n)
	}
	return l
}

// levelTables holds one Classify call's levels for n = 2 … limit; at
// builds each on first use and shares it with every scan after. keyed
// says a store is attached, so each level needs its fingerprint. Its
// Worker resets it per call, and each level's table is built into
// storage that the level keeps for the Worker's later calls: nothing
// outside the call holds a table.
type levelTables struct {
	t     spec.Type
	keyed bool
	lv    []lazyLevel
}

type lazyLevel struct {
	built bool
	l     level
	tab   compile.Compiled // the storage of l.tab, when the level built one
}

// reset readies lt for a Classify call of t up to limit.
func (lt *levelTables) reset(t spec.Type, limit int, keyed bool) {
	lt.t, lt.keyed = t, keyed
	if cap(lt.lv) < limit+1 {
		lt.lv = make([]lazyLevel, limit+1)
		return
	}
	lt.lv = lt.lv[:limit+1]
	for i := range lt.lv {
		lt.lv[i].built = false
	}
}

// at returns the level at n, building it once. A type without
// spec.OpsForN has the same alphabet, so the same table, at every n:
// its levels above 2 share level 2's table, and with it one
// automorphism group, each under its own fingerprint.
func (lt *levelTables) at(n int) level {
	x := &lt.lv[n]
	if !x.built {
		var tab *compile.Compiled
		if _, hasN := lt.t.(spec.OpsForN); hasN || n == 2 {
			if x.tab.Reset(lt.t, n) == nil {
				tab = &x.tab
			}
		} else {
			tab = lt.at(2).tab
		}
		x.l, x.built = newLevel(tab, n, lt.keyed), true
	}
	return x.l
}

// search is Search on an already built level l of (t, n). A computed
// search runs the shard loop on l's table, or the sequential search
// when l has no searchable table.
func (w *Worker) search(ctx context.Context, t spec.Type, p Property, n int, l level) (*checker.Witness, error) {
	e := w.e
	if p != Recording && p != Discerning {
		return nil, fmt.Errorf("engine: invalid property %d", int(p))
	}
	persisted := e.persist != nil && l.fp != ""
	if persisted {
		if w, ok := e.persistGet(ctx, l.fp, p, n); ok {
			return w, nil
		}
	}
	// A genuinely computed search is the expensive stage worth its own
	// span; persist hits returned above (persistGet spans itself).
	sctx, span := obs.StartSpan(ctx, "engine.search")
	span.SetAttr("property", p.String())
	span.SetAttr("n", strconv.Itoa(n))
	defer span.End()
	var (
		wit *checker.Witness
		err error
	)
	if l.tab != nil && l.tab.Searchable() == nil {
		wit, err = w.searchShards(sctx, l.tab, n, p == Recording)
	} else {
		wit, err = w.searchSequential(sctx, t, p, n)
	}
	if err != nil {
		span.MarkError()
		return nil, err
	}
	// Persist hits return above untouched; only genuinely computed
	// searches are worth a debug-level log line, and its arguments are
	// boxed only when the logger keeps debug records.
	if logger := obs.LoggerFrom(ctx); logger.Enabled(ctx, slog.LevelDebug) {
		logger.Debug("engine search computed",
			"type", t.Name(), "property", p.String(), "n", n, "witness", wit != nil)
	}
	if persisted {
		e.persistPut(sctx, l.fp, p, n, wit)
	}
	return wit, nil
}

// searchSequential runs the interpreted sequential search of (t, n) for
// p on the caller's goroutine, for a level with no searchable table.
// Unless the goroutine holds a batch slot, it holds a worker slot for
// the search when one is free.
func (w *Worker) searchSequential(ctx context.Context, t spec.Type, p Property, n int) (*checker.Witness, error) {
	held := !w.slot && w.e.takeSlot()
	wit, err := checker.Search(ctx, t, n, p.verify())
	if held {
		w.e.freeSlot()
	}
	return wit, err
}

// shardScratch is what one goroutine checks shards with: a searcher it
// re-arms per search and the claimed shard's team-A counts.
type shardScratch struct {
	s      *checker.IndexSearch
	counts []int
}

// searcher returns sc's searcher re-armed for c among n processes,
// building it on first use: compiled, or interpreted when interpreted
// is set, which stays the same for every use of one engine's Worker.
func (sc *shardScratch) searcher(c *compile.Compiled, n int, recording, interpreted bool) *checker.IndexSearch {
	switch {
	case sc.s != nil:
		sc.s.Reset(c, n, recording)
	case interpreted:
		sc.s = checker.NewInterpretedSearch(c, n, recording)
	default:
		sc.s = checker.NewIndexSearch(c, n, recording)
	}
	if cap(sc.counts) < c.NumOps() {
		sc.counts = make([]int, c.NumOps())
	}
	sc.counts = sc.counts[:c.NumOps()]
	return sc.s
}

// shardSearch is the state that one search's goroutines share: the
// table, the cursor they claim shards from under the run's lock, the
// orbit filter that screens the cursor's shards, and the ordered run.
// Its Worker resets it per search.
type shardSearch struct {
	c           *compile.Compiled
	n           int
	recording   bool
	interpreted bool
	cur         checker.ShardCursor
	orbits      orbitFilter
	run         ordered.Run[*checker.Witness]
	helpers     sync.WaitGroup
}

// searchShards is the engine's shard loop: it searches c's index shards
// among n processes on an ordered.Run. A compiled engine keeps only the
// first shard of each symmetry orbit; an interpreted one checks every
// shard with the interpreted verifier.
//
// The search runs on the calling goroutine, which holds a worker slot
// for its batch or takes one for the search when one is free, and
// searches either way, plus one helper for each further slot free at
// this moment, up to one per shard. So a busy engine runs a search on
// its caller's goroutine, whose stack is already grown, and an idle one
// fans it out. The caller checks shards with w.scratch[0] and helper h
// with w.scratch[h].
func (w *Worker) searchShards(ctx context.Context, c *compile.Compiled, n int, recording bool) (*checker.Witness, error) {
	e, s := w.e, &w.shards
	if err := s.cur.Reset(c, n); err != nil {
		return nil, err
	}
	s.c, s.n, s.recording, s.interpreted = c, n, recording, e.interpreted
	s.orbits.reset(c, !e.interpreted)
	s.run.Reset(ctx)
	held := !w.slot && e.takeSlot()
	for h := 1; h < min(s.cur.Len(), len(w.scratch)) && e.takeSlot(); h++ {
		e.helpers.Add(1)
		s.helpers.Add(1)
		go s.help(e, &w.scratch[h])
	}
	s.work(&w.scratch[0])
	if held {
		e.freeSlot()
	}
	s.helpers.Wait()
	return s.run.Result()
}

// help runs a helper's share of s with sc on the worker slot taken
// for it, then frees the slot.
func (s *shardSearch) help(e *Engine, sc *shardScratch) {
	defer s.helpers.Done()
	s.work(sc)
	e.freeSlot()
}

// work claims and checks shards of s with sc until the run has none
// left to claim.
func (s *shardSearch) work(sc *shardScratch) {
	is := sc.searcher(s.c, s.n, s.recording, s.interpreted)
	var (
		i      int
		q0     uint16
		counts = sc.counts
	)
	advance := func(int) bool {
		for s.cur.Next() {
			if s.orbits.first(s.cur.Q0(), s.cur.ACounts()) {
				q0 = s.cur.Q0()
				copy(counts, s.cur.ACounts())
				return true
			}
		}
		return false
	}
	stop := func() bool { return s.run.Obsolete(i) }
	for {
		var ok bool
		if i, ok = s.run.Claim(advance); !ok {
			return
		}
		if w, err := is.Search(q0, counts, stop); w != nil || err != nil {
			s.run.Finish(i, w, err)
		}
	}
}

// orbitFilter keeps the first index shard of each orbit under a
// table's automorphism group and drops its relabelings. Keeping first
// occurrences preserves the search verdict AND the canonical witness:
// if the lowest-indexed witness-containing shard were dropped as the
// orbit-mate of an earlier kept shard, that earlier shard would
// contain the relabeled witness — contradicting minimality — so it is
// never dropped, and every shard before it is witness-free with or
// without pruning.
type orbitFilter struct {
	g    *compile.Group // nil: every shard is kept
	seen map[compile.ShardKey]struct{}
}

// reset readies f for a search of c: with prune set and a nontrivial
// automorphism group, f keeps the first shard of each orbit, and
// otherwise every shard.
func (f *orbitFilter) reset(c *compile.Compiled, prune bool) {
	f.g = nil
	if !prune || !c.Automorphisms().Nontrivial() {
		return
	}
	f.g = c.Automorphisms()
	if f.seen == nil {
		f.seen = map[compile.ShardKey]struct{}{}
	}
	clear(f.seen)
}

// first reports whether shard (q0, counts) is the first of its orbit
// the filter has seen, recording it.
func (f *orbitFilter) first(q0 uint16, counts []int) bool {
	if f.g == nil {
		return true
	}
	key := f.g.CanonicalShardKey(q0, counts)
	if _, ok := f.seen[key]; ok {
		return false
	}
	f.seen[key] = struct{}{}
	return true
}

// maxLevel scans property p for n = 2 … limit over w's levels, with
// checker.ScanMax's downward-closure early stop. Every level above
// bound is answered "no witness" without a search.
func (w *Worker) maxLevel(ctx context.Context, t spec.Type, p Property, limit, bound int) (checker.MaxLevel, error) {
	return checker.ScanMax(limit, func(n int) (*checker.Witness, error) {
		if n > bound {
			return nil, nil
		}
		return w.search(ctx, t, p, n, w.levels.at(n))
	})
}

// Classify derives type t's cons/rcons bands exactly like
// checker.Classify, with every level search sharded over the worker
// slots. It runs the discerning scan, then the recording scan on the
// levels up to disc.Max: an n-recording type is n-discerning
// (Observation 5 of the paper), so every level above disc.Max has no
// recording witness, and is answered so without a search or a store
// read. Each table is built once, when a scan first needs it, and
// shared by both scans (see levelTables.at). Classify holds an idle
// Worker for the call; Each holds one per goroutine across calls.
func (e *Engine) Classify(ctx context.Context, t spec.Type, limit int) (checker.Classification, error) {
	w := e.hold(0)
	defer e.idle.Put(w)
	return w.Classify(ctx, t, limit)
}

// Classify is Engine.Classify on w's search state.
func (w *Worker) Classify(ctx context.Context, t spec.Type, limit int) (checker.Classification, error) {
	if limit < 2 {
		return checker.Classification{}, fmt.Errorf("checker: classification limit must be ≥ 2, got %d", limit)
	}
	ctx, span := obs.StartSpan(ctx, "engine.classify")
	span.SetAttr("type", t.Name())
	span.SetAttr("limit", strconv.Itoa(limit))
	defer span.End()
	w.levels.reset(t, limit, w.e.persist != nil)
	disc, err := w.maxLevel(ctx, t, Discerning, limit, limit)
	var rec checker.MaxLevel
	if err == nil {
		rec, err = w.maxLevel(ctx, t, Recording, limit, disc.Max)
	}
	if err != nil {
		span.MarkError()
		return checker.Classification{}, fmt.Errorf("classify %s: %w", t.Name(), err)
	}
	c, err := checker.Derive(t, disc, rec)
	if err == nil {
		w.e.classified.Add(1)
	}
	return c, err
}

// Each is the engine's batch loop: it calls item(w, i) for i = 0 …
// n−1 on min(workers, n) goroutines, each holding its own Worker w,
// which item classifies on, and returns when they all have. The
// goroutines claim indices in order from one counter, and each stops
// once item returns false or no index is left. w.Index() is below
// min(workers, n).
//
// Each first takes a worker slot for each of its goroutines, as many as
// are free, and only then starts them; a goroutine that got a slot
// frees it when it ends. Their searches take no slot of their own, and
// start helpers only on slots free besides. Taking every slot before
// any goroutine starts keeps a goroutine's first search from starting a
// helper on a slot meant for a goroutine not yet started. So a
// full-width batch on an otherwise idle engine searches on its
// goroutines alone, and fans out only on the slots its ended goroutines
// free, or that a narrower batch leaves free.
func (e *Engine) Each(workers, n int, item func(w *Worker, i int) bool) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	width, taken := min(workers, n), 0
	for range width {
		if e.takeSlot() {
			taken++
		}
	}
	for k := range width {
		held := k < taken
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := e.hold(k)
			w.slot = held
			defer func() {
				if held {
					e.freeSlot()
				}
				w.slot = false
				e.idle.Put(w)
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || !item(w, i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// ClassifyEach classifies every type in ts on Each's goroutines, and
// reports each item's outcome independently: errs[i] is non-nil exactly
// when out[i] is not valid. One bad item (a table a theorem rejects, a
// per-item failure) does not poison the rest of the batch — this is the
// per-item contract behind rcserve's POST /v1/classify/batch. Both
// slices keep the order of ts.
func (e *Engine) ClassifyEach(ctx context.Context, ts []spec.Type, limit int) (out []checker.Classification, errs []error) {
	out = make([]checker.Classification, len(ts))
	errs = make([]error, len(ts))
	e.Each(e.workers, len(ts), func(w *Worker, i int) bool {
		if errs[i] = ctx.Err(); errs[i] == nil {
			out[i], errs[i] = w.Classify(ctx, ts[i], limit)
		}
		return true
	})
	return out, errs
}

// ClassifyAll classifies every type in ts, running up to Workers
// classifications concurrently. Results keep the order of ts; the first
// error aborts the batch.
func (e *Engine) ClassifyAll(ctx context.Context, ts []spec.Type, limit int) ([]checker.Classification, error) {
	out, errs := e.ClassifyEach(ctx, ts, limit)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Scan classifies the entire built-in type zoo at the given limit — the
// batch behind `rcserve /v1/zoo` and the harness hierarchy table.
func (e *Engine) Scan(ctx context.Context, limit int) ([]checker.Classification, error) {
	return e.ClassifyAll(ctx, types.Zoo(), limit)
}
