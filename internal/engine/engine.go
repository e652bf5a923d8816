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
	// concurrent searches; ≤ 0 means runtime.GOMAXPROCS(0). A search
	// runs on its calling goroutine, which takes a slot when one is
	// free, plus a helper for each further slot free when it starts.
	// ClassifyEach runs up to Workers classifications at once.
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
	// sem holds the engine-wide worker slots; the bound covers every
	// search at once, not each one. A search's caller takes a slot if
	// one is free and searches either way, and helpers start only on
	// slots free at that moment, so the goroutines searching never
	// exceed the callers plus `workers`, and a busy engine (a census, a
	// batch) runs each search on its caller alone.
	sem     chan struct{}
	persist Persist // nil when no persistent store is attached
	pstats  persistStats
	// classified counts the classifications Classify has derived.
	classified atomic.Int64

	// interpreted checks shards with the interpreted verifier.
	interpreted bool
}

// New builds an Engine from opts.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:     w,
		sem:         make(chan struct{}, w),
		persist:     opts.Persist,
		interpreted: opts.Interpreted,
	}
}

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
	return e.search(ctx, t, p, n, newLevel(tab, n, e.persist != nil))
}

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
// says a store is attached, so each level needs its fingerprint. It is
// used by the one goroutine that runs the call's scans.
type levelTables struct {
	t     spec.Type
	keyed bool
	lv    []lazyLevel
}

type lazyLevel struct {
	built bool
	l     level
}

func (e *Engine) levels(t spec.Type, limit int) levelTables {
	return levelTables{t: t, keyed: e.persist != nil, lv: make([]lazyLevel, max(limit+1, 0))}
}

// at returns the level at n, building it once. A type without
// spec.OpsForN has the same alphabet, so the same table, at every n:
// its levels above 2 share level 2's table, and with it one
// automorphism group, each under its own fingerprint.
func (lt levelTables) at(n int) level {
	x := &lt.lv[n]
	if !x.built {
		var tab *compile.Compiled
		if _, hasN := lt.t.(spec.OpsForN); hasN || n == 2 {
			tab, _ = compile.Table(lt.t, n)
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
func (e *Engine) search(ctx context.Context, t spec.Type, p Property, n int, l level) (*checker.Witness, error) {
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
		w   *checker.Witness
		err error
	)
	if l.tab != nil && l.tab.Searchable() == nil {
		w, err = e.searchShards(sctx, l.tab, n, p == Recording)
	} else {
		w, err = e.searchSequential(sctx, t, p, n)
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
			"type", t.Name(), "property", p.String(), "n", n, "witness", w != nil)
	}
	if persisted {
		e.persistPut(sctx, l.fp, p, n, w)
	}
	return w, nil
}

// searchSequential runs the interpreted sequential search of (t, n) for
// p on one worker slot, for a level with no searchable table.
func (e *Engine) searchSequential(ctx context.Context, t spec.Type, p Property, n int) (w *checker.Witness, err error) {
	verify := p.verify()
	e.fanOut(1, func() { w, err = checker.Search(ctx, t, n, verify) })
	return w, err
}

// fanOut runs work on the calling goroutine, which takes a sem slot
// when one is free and works either way, plus one helper for each
// further slot free at this moment, up to count−1, and returns when
// all have returned. So a busy engine runs a search on its caller's
// goroutine, whose stack is already grown, and an idle one fans it out.
func (e *Engine) fanOut(count int, work func()) {
	held := false
	select {
	case e.sem <- struct{}{}:
		held = true
	default:
	}
	var wg sync.WaitGroup
helpers:
	for h := 1; h < count; h++ {
		select {
		case e.sem <- struct{}{}:
		default:
			break helpers
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
			<-e.sem
		}()
	}
	work()
	if held {
		<-e.sem
	}
	wg.Wait()
}

// searchShards is the engine's shard loop: it searches c's index shards
// among n processes on an ordered.Run. A compiled engine keeps only the
// first shard of each symmetry orbit; an interpreted one checks every
// shard with the interpreted verifier.
func (e *Engine) searchShards(ctx context.Context, c *compile.Compiled, n int, recording bool) (*checker.Witness, error) {
	cur, err := checker.NewShardCursor(c, n)
	if err != nil {
		return nil, err
	}
	r := ordered.New[*checker.Witness](ctx)
	newSearch := checker.NewInterpretedSearch
	var orbits *orbitFilter
	if !e.interpreted {
		newSearch, orbits = checker.NewIndexSearch, newOrbitFilter(c)
	}
	e.fanOut(cur.Len(), func() {
		s := newSearch(c, n, recording)
		defer s.Close()
		var (
			i      int
			q0     uint16
			counts = make([]int, c.NumOps())
		)
		advance := func(int) bool {
			for cur.Next() {
				if orbits.first(cur.Q0(), cur.ACounts()) {
					q0 = cur.Q0()
					copy(counts, cur.ACounts())
					return true
				}
			}
			return false
		}
		stop := func() bool { return r.Obsolete(i) }
		for {
			var ok bool
			if i, ok = r.Claim(advance); !ok {
				return
			}
			if w, err := s.Search(q0, counts, stop); w != nil || err != nil {
				r.Finish(i, w, err)
			}
		}
	})
	return r.Result()
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
	g    *compile.Group
	seen map[string]struct{}
}

// newOrbitFilter returns c's filter, or nil when c's group is trivial
// and every shard is kept.
func newOrbitFilter(c *compile.Compiled) *orbitFilter {
	g := c.Automorphisms()
	if !g.Nontrivial() {
		return nil
	}
	return &orbitFilter{g: g, seen: map[string]struct{}{}}
}

// first reports whether shard (q0, counts) is the first of its orbit
// the filter has seen, recording it.
func (f *orbitFilter) first(q0 uint16, counts []int) bool {
	if f == nil {
		return true
	}
	key := f.g.CanonicalShardKey(q0, counts)
	if _, ok := f.seen[key]; ok {
		return false
	}
	f.seen[key] = struct{}{}
	return true
}

// maxLevel scans property p for n = 2 … limit over the levels lt, with
// checker.ScanMax's downward-closure early stop. Every level above
// bound is answered "no witness" without a search.
func (e *Engine) maxLevel(ctx context.Context, t spec.Type, p Property, limit, bound int, lt levelTables) (checker.MaxLevel, error) {
	return checker.ScanMax(limit, func(n int) (*checker.Witness, error) {
		if n > bound {
			return nil, nil
		}
		return e.search(ctx, t, p, n, lt.at(n))
	})
}

// Classify derives type t's cons/rcons bands exactly like
// checker.Classify, with every level search sharded over the worker
// slots. It runs the discerning scan, then the recording scan on the
// levels up to disc.Max: an n-recording type is n-discerning
// (Observation 5 of the paper), so every level above disc.Max has no
// recording witness, and is answered so without a search or a store
// read. Each table is built once, when a scan first needs it, and
// shared by both scans (see levelTables.at).
func (e *Engine) Classify(ctx context.Context, t spec.Type, limit int) (checker.Classification, error) {
	if limit < 2 {
		return checker.Classification{}, fmt.Errorf("checker: classification limit must be ≥ 2, got %d", limit)
	}
	ctx, span := obs.StartSpan(ctx, "engine.classify")
	span.SetAttr("type", t.Name())
	span.SetAttr("limit", strconv.Itoa(limit))
	defer span.End()
	lt := e.levels(t, limit)
	disc, err := e.maxLevel(ctx, t, Discerning, limit, limit, lt)
	var rec checker.MaxLevel
	if err == nil {
		rec, err = e.maxLevel(ctx, t, Recording, limit, disc.Max, lt)
	}
	if err != nil {
		span.MarkError()
		return checker.Classification{}, fmt.Errorf("classify %s: %w", t.Name(), err)
	}
	c, err := checker.Derive(t, disc, rec)
	if err == nil {
		e.classified.Add(1)
	}
	return c, err
}

// ClassifyEach classifies every type in ts on up to Workers goroutines,
// each claiming the next unclassified item, and reports each item's
// outcome independently: errs[i] is non-nil exactly when out[i] is not
// valid. One bad item (a table a theorem rejects, a per-item failure)
// does not poison the rest of the batch — this is the per-item contract
// behind rcserve's POST /v1/classify/batch. Both slices keep the order
// of ts.
func (e *Engine) ClassifyEach(ctx context.Context, ts []spec.Type, limit int) (out []checker.Classification, errs []error) {
	out = make([]checker.Classification, len(ts))
	errs = make([]error, len(ts))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(e.workers, len(ts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ts) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = e.Classify(ctx, ts[i], limit)
			}
		}()
	}
	wg.Wait()
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
