// Package engine is the concurrent classification engine layered over
// package checker. It answers the same questions — "is type T
// n-recording / n-discerning, and what cons/rcons bands follow?" — but
// partitions each exhaustive witness search into independent shards
// (checker.Shards), verifies the shards on a worker pool with early
// cancellation once a witness is found, and memoizes results behind a
// canonical type fingerprint so repeated queries (CLI runs, zoo scans,
// rcserve traffic) are served from cache.
//
// Determinism: the pool tracks the lowest-indexed shard that produced a
// witness and cancels only shards that enumerate later, so the engine
// returns exactly the witness the sequential search would, independent
// of worker count and scheduling. Classification results are therefore
// byte-identical to checker.Classify (asserted over the whole zoo by
// TestEngineMatchesSequentialZoo).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rcons/internal/checker"
	"rcons/internal/compile"
	"rcons/internal/lru"
	"rcons/internal/obs"
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

func (p Property) verify() (checker.VerifyFunc, error) {
	switch p {
	case Recording:
		return checker.VerifyRecording, nil
	case Discerning:
		return checker.VerifyDiscerning, nil
	}
	return nil, fmt.Errorf("engine: invalid property %d", int(p))
}

// Options configures an Engine. The zero value gives one worker per CPU
// and a 4096-entry cache.
type Options struct {
	// Workers is the number of concurrent shard verifications per
	// search; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheSize bounds the number of memoized search results (LRU);
	// 0 means 4096, negative disables in-memory memoization entirely.
	CacheSize int
	// Persist, when non-nil, backs the memo cache with a persistent
	// result store: cache misses consult it before searching, and every
	// computed result is written through — so classifications survive
	// restarts and are shared by every binary opening the same store.
	Persist Persist
	// Interpreted disables the compiled fast path: searches verify
	// witnesses by interpreting spec.Type directly instead of compiling
	// it to dense transition tables first, and symmetric-shard pruning
	// is off. This is the parity oracle — results must be bit-identical
	// either way (asserted by the compiled-parity batteries).
	Interpreted bool
}

// Engine runs sharded, memoized witness searches. It is safe for
// concurrent use; one Engine is meant to be shared (e.g. by all rcserve
// requests) so that the cache actually accumulates.
type Engine struct {
	workers int
	// sem globally bounds busy shard verifications: concurrent searches
	// (two property scans per Classify, many classifications per batch)
	// each spawn their own goroutines, but at most `workers` of them
	// hold a slot and burn CPU at any instant, so nested fan-out cannot
	// oversubscribe the machine quadratically.
	sem     chan struct{}
	cache   *cache  // nil when memoization is disabled
	persist Persist // nil when no persistent store is attached
	pstats  persistStats

	// classes memoizes whole classifications keyed by exact fingerprint
	// and limit. The search memo alone leaves a cached Classify paying
	// ~100µs of pure bookkeeping — two goroutine fan-outs plus one
	// SHA-256 fingerprint per (property, level) lookup — which dominates
	// hot serving paths like /v1/classify/batch over a warm engine. A
	// classification hit skips all of it. nil whenever cache is nil.
	classes                *lru.Cache[classKey, checker.Classification]
	classHits, classMisses atomic.Int64

	// interpreted switches verification to the parity-oracle path.
	interpreted bool
	// compiled caches one dense transition table per (type, n), shared
	// by every shard and memo probe of every search on that type. A nil
	// entry value records that compilation failed (e.g. the state space
	// exceeds compile.StateCap) so the failure is not retried per search.
	cmu      sync.Mutex
	compiled map[compiledKey]*compiledEntry
}

// compiledKey identifies a compiled table by folded type fingerprint
// and process count.
type compiledKey struct {
	fp [2]uint64
	n  int
}

// compiledEntry delays compilation until the first search needs the
// table; concurrent searches share the one compile.
type compiledEntry struct {
	once sync.Once
	c    *compile.Compiled
}

// compiledCacheCap bounds the compiled-table cache; on overflow an
// arbitrary entry is evicted (tables are cheap to rebuild).
const compiledCacheCap = 4096

// New builds an Engine from opts.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers:     w,
		sem:         make(chan struct{}, w),
		persist:     opts.Persist,
		interpreted: opts.Interpreted,
		compiled:    map[compiledKey]*compiledEntry{},
	}
	size := opts.CacheSize
	if size == 0 {
		size = 4096
	}
	if size > 0 {
		e.cache = newCache(size)
		e.classes = lru.New[classKey, checker.Classification](size)
	}
	return e
}

// classKey identifies one memoized classification: the folded exact
// fingerprint at n = limit (which hashes the type's name, alphabet and
// full reachable transition table, so equal keys imply identical
// classifications including TypeName) plus the limit itself.
type classKey struct {
	fp    [2]uint64
	limit int
}

// cloneClassification deep-copies the witness pointers inside a
// classification so cached entries are immune to caller mutation (the
// value itself is copied by assignment; only MaxLevel.Witness aliases).
func cloneClassification(c checker.Classification) checker.Classification {
	if c.Discerning.Witness != nil {
		w := cloneWitness(*c.Discerning.Witness)
		c.Discerning.Witness = &w
	}
	if c.Recording.Witness != nil {
		w := cloneWitness(*c.Recording.Witness)
		c.Recording.Witness = &w
	}
	return c
}

// Workers returns the configured worker-pool width.
func (e *Engine) Workers() int { return e.workers }

// Stats returns cumulative cache statistics (zero values when the cache
// is disabled) merged with the persistent-store counters.
func (e *Engine) Stats() CacheStats {
	var s CacheStats
	if e.cache != nil {
		s = e.cache.Stats()
	}
	// Whole-classification memo hits are cache hits too: they answer a
	// Classify without any search-level lookups at all.
	s.Hits += e.classHits.Load()
	s.Misses += e.classMisses.Load()
	s.PersistHits = e.pstats.hits.Load()
	s.PersistMisses = e.pstats.misses.Load()
	s.PersistErrors = e.pstats.errors.Load()
	return s
}

// PublishProgress starts periodic publication of the engine's
// cumulative counters (lookups as the work unit, memo and persist hit
// ratios) to sink, tagged with the given trace ID. The returned stop
// function flushes one final sample and waits for the publisher to
// exit; a nil sink makes both no-ops. interval ≤ 0 means 1s.
func (e *Engine) PublishProgress(interval time.Duration, sink obs.Sink, trace string) (stop func()) {
	start := time.Now()
	return obs.PublishEvery(interval, sink, func() obs.Progress {
		s := e.Stats()
		nodes := s.Hits + s.Misses
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
			MemoHits:      s.Hits,
			MemoMisses:    s.Misses,
			PersistHits:   s.PersistHits,
			PersistMisses: s.PersistMisses,
			Elapsed:       elapsed,
		}
	})
}

// Search looks for a witness of property p for type t among n processes,
// verifying enumeration shards concurrently. It returns nil when no
// witness exists over the candidate sets — the same exhaustive guarantee
// as the sequential checker searches. Results (including negative ones)
// are memoized under the type's fingerprint, and — with a persistent
// store attached — written through to disk, so they survive restarts.
func (e *Engine) Search(ctx context.Context, t spec.Type, p Property, n int) (*checker.Witness, error) {
	verify, err := p.verify()
	if err != nil {
		return nil, err
	}
	var (
		key     cacheKey
		fp      string
		haveKey bool
	)
	if e.cache != nil || e.persist != nil {
		if f, ok := Fingerprint(t, n); ok {
			fp = f
			key = cacheKey{fp: foldFingerprint(fp), prop: p, n: n}
			haveKey = true
		}
	}
	if haveKey && e.cache != nil {
		if r, ok := e.cache.get(key); ok {
			return resultWitness(r), nil
		}
	}
	if haveKey && e.persist != nil {
		if r, ok := e.persistGet(ctx, fp, p, n); ok {
			// Promote to the memo cache so the disk is read once.
			if e.cache != nil {
				e.cache.put(key, r)
			}
			return resultWitness(r), nil
		}
	}
	// A genuinely computed search is the expensive stage worth its own
	// span; memo and persist hits returned above (persistGet spans
	// itself). Only computed searches pay for compilation either. A nil
	// table (interpreted mode, or the type exceeds the compiler's caps)
	// falls back to the interpreted verifier.
	sctx, span := obs.StartSpan(ctx, "engine.search")
	span.SetAttr("property", p.String())
	span.SetAttr("n", strconv.Itoa(n))
	defer span.End()
	comp := e.compiledFor(t, n, key, haveKey)
	searchShard := func(ctx context.Context, s checker.Shard) (*checker.Witness, error) {
		return checker.SearchShard(ctx, t, s, verify)
	}
	if comp != nil {
		searchShard = func(ctx context.Context, s checker.Shard) (*checker.Witness, error) {
			return checker.SearchShardCompiled(ctx, comp, s, p == Recording)
		}
	}
	w, err := e.searchParallel(sctx, t, n, searchShard, comp)
	if err != nil {
		span.MarkError()
		return nil, err
	}
	// Cached paths return above untouched; only genuinely computed
	// searches are worth a (debug-level, usually discarded) log line.
	obs.LoggerFrom(ctx).Debug("engine search computed",
		"type", t.Name(), "property", p.String(), "n", n, "witness", w != nil)
	if haveKey {
		r := searchResult{found: w != nil}
		if w != nil {
			r.witness = cloneWitness(*w)
		}
		if e.cache != nil {
			e.cache.put(key, r)
		}
		if e.persist != nil {
			e.persistPut(sctx, fp, p, n, r)
		}
	}
	return w, nil
}

// resultWitness converts a cached/stored result back into the Search
// return convention, deep-copying so callers cannot corrupt the cache.
func resultWitness(r searchResult) *checker.Witness {
	if !r.found {
		return nil
	}
	w := cloneWitness(r.witness)
	return &w
}

// foldFingerprint packs the leading 128 bits of a canonical fingerprint
// (64 hex characters of SHA-256) into the cache key. Malformed input
// cannot occur — Fingerprint always hex-encodes — but is still mapped
// injectively enough for a cache (worst case: a shared bucket).
func foldFingerprint(fp string) [2]uint64 {
	var out [2]uint64
	for i := 0; i < 32 && i < len(fp); i++ {
		c := fp[i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		}
		out[i/16] = out[i/16]<<4 | v
	}
	return out
}

// cloneWitness deep-copies a witness so cached entries are immune to
// caller mutation.
func cloneWitness(w checker.Witness) checker.Witness {
	return checker.Witness{
		Q0:    w.Q0,
		Teams: append([]int(nil), w.Teams...),
		Ops:   append([]spec.Op(nil), w.Ops...),
	}
}

// compiledFor returns the dense transition table for (t, n), compiling
// and caching it on first use, or nil when the engine runs interpreted
// or the type cannot be compiled (caps exceeded, malformed ops). The
// cache key reuses the already-folded search fingerprint; searches
// without one (memoization disabled and no store) compile fresh, which
// costs one Apply per table cell.
func (e *Engine) compiledFor(t spec.Type, n int, key cacheKey, haveKey bool) *compile.Compiled {
	if e.interpreted {
		return nil
	}
	if !haveKey {
		c, _ := compile.Compile(t, n)
		return c
	}
	ck := compiledKey{fp: key.fp, n: n}
	e.cmu.Lock()
	ent := e.compiled[ck]
	if ent == nil {
		if len(e.compiled) >= compiledCacheCap {
			for k := range e.compiled {
				delete(e.compiled, k)
				break
			}
		}
		ent = &compiledEntry{}
		e.compiled[ck] = ent
	}
	e.cmu.Unlock()
	ent.once.Do(func() { ent.c, _ = compile.Compile(t, n) })
	return ent.c
}

// pruneSymmetricShards drops witness-search shards that are relabelings
// of earlier ones under the table's automorphism group, keeping the
// first shard of each orbit. Keeping first occurrences preserves the
// search verdict AND the canonical witness: if the lowest-indexed
// witness-containing shard were pruned as the orbit-mate of an earlier
// kept shard, that earlier shard would contain the relabeled witness —
// contradicting minimality — so it is never pruned, and every shard
// before it is witness-free with or without pruning.
//
// The reduction only fires when the shard alphabet is exactly the
// compiled alphabet (it is, for searches with default candidate sets:
// both come from spec.CandidateOps) and the group is nontrivial.
func pruneSymmetricShards(shards []checker.Shard, c *compile.Compiled) []checker.Shard {
	if len(shards) == 0 {
		return shards
	}
	g := c.Automorphisms()
	if !g.Nontrivial() {
		return shards
	}
	ops := shards[0].Ops
	if len(ops) != c.NumOps() {
		return shards
	}
	for k, op := range ops {
		if c.OpAt(uint16(k)) != op {
			return shards
		}
	}
	seen := make(map[string]bool, len(shards))
	out := shards[:0]
	for _, s := range shards {
		q0, ok := c.StateIndex(s.Q0)
		if !ok {
			out = append(out, s)
			continue
		}
		key := g.CanonicalShardKey(q0, s.ACounts)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, s)
	}
	return out
}

// searchParallel fans the enumeration shards for (t, n) out over the
// worker pool. To keep the result identical to the sequential search it
// tracks the lowest shard index that has produced a witness: workers
// stop claiming shards past it, in-flight later shards are cancelled
// through their contexts, and earlier in-flight shards run to completion
// because they could still yield the canonical (first-in-order) witness.
// searchShard searches one shard; comp, when non-nil, is the table it
// runs on, whose symmetries prune the shard list.
func (e *Engine) searchParallel(
	ctx context.Context, t spec.Type, n int,
	searchShard func(context.Context, checker.Shard) (*checker.Witness, error),
	comp *compile.Compiled,
) (*checker.Witness, error) {
	shards, err := checker.Shards(t, n, nil)
	if err != nil || len(shards) == 0 {
		return nil, err
	}
	if comp != nil {
		shards = pruneSymmetricShards(shards, comp)
	}
	workers := min(e.workers, len(shards))
	if workers <= 1 {
		for _, s := range shards {
			e.sem <- struct{}{}
			w, err := searchShard(ctx, s)
			<-e.sem
			if err != nil {
				return nil, err
			}
			if w != nil {
				return w, nil
			}
		}
		return nil, nil
	}

	var (
		mu       sync.Mutex
		bestIdx  = len(shards)
		bestW    *checker.Witness
		firstErr error
		active   = map[int]context.CancelFunc{}
		next     int
	)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				if i >= len(shards) || i >= bestIdx || firstErr != nil {
					mu.Unlock()
					return
				}
				sctx, cancel := context.WithCancel(ctx)
				active[i] = cancel
				mu.Unlock()

				e.sem <- struct{}{}
				w, err := searchShard(sctx, shards[i])
				<-e.sem

				mu.Lock()
				delete(active, i)
				cancel()
				switch {
				case err != nil:
					// A cancellation we triggered ourselves (the shard
					// became obsolete after a lower-indexed witness) is
					// not a search failure; everything else is.
					if errors.Is(err, context.Canceled) && ctx.Err() == nil {
						mu.Unlock()
						continue
					}
					if firstErr == nil {
						firstErr = err
						for _, c := range active {
							c()
						}
					}
					mu.Unlock()
					return
				case w != nil && i < bestIdx:
					bestIdx, bestW = i, w
					for j, c := range active {
						if j > i {
							c()
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return bestW, nil
}

// Max scans property p for n = 2 … limit, mirroring checker.MaxRecording
// / MaxDiscerning (including the downward-closure early stop) but with
// each level's search sharded and memoized.
func (e *Engine) Max(ctx context.Context, t spec.Type, p Property, limit int) (checker.MaxLevel, error) {
	out := checker.MaxLevel{Max: 1, Limit: limit}
	for n := 2; n <= limit; n++ {
		w, err := e.Search(ctx, t, p, n)
		if err != nil {
			return checker.MaxLevel{}, err
		}
		if w == nil {
			return out, nil
		}
		out.Max = n
		out.Witness = w
	}
	out.AtLimit = true
	return out, nil
}

// Classify derives type t's cons/rcons bands exactly like
// checker.Classify, with the two property scans running concurrently and
// every level search sharded over the worker pool.
func (e *Engine) Classify(ctx context.Context, t spec.Type, limit int) (checker.Classification, error) {
	if limit < 2 {
		return checker.Classification{}, fmt.Errorf("checker: classification limit must be ≥ 2, got %d", limit)
	}
	ctx, span := obs.StartSpan(ctx, "engine.classify")
	span.SetAttr("type", t.Name())
	span.SetAttr("limit", strconv.Itoa(limit))
	defer span.End()
	var (
		ckey    classKey
		haveKey bool
	)
	if e.classes != nil {
		if fp, ok := Fingerprint(t, limit); ok {
			ckey = classKey{fp: foldFingerprint(fp), limit: limit}
			haveKey = true
			if c, ok := e.classes.Get(ckey); ok {
				e.classHits.Add(1)
				span.SetAttr("memo", "hit")
				return cloneClassification(c), nil
			}
			e.classMisses.Add(1)
			span.SetAttr("memo", "miss")
		}
	}
	var (
		wg         sync.WaitGroup
		disc, rec  checker.MaxLevel
		dErr, rErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		disc, dErr = e.Max(ctx, t, Discerning, limit)
	}()
	go func() {
		defer wg.Done()
		rec, rErr = e.Max(ctx, t, Recording, limit)
	}()
	wg.Wait()
	if dErr != nil {
		span.MarkError()
		return checker.Classification{}, fmt.Errorf("classify %s: %w", t.Name(), dErr)
	}
	if rErr != nil {
		span.MarkError()
		return checker.Classification{}, fmt.Errorf("classify %s: %w", t.Name(), rErr)
	}
	c, err := checker.Derive(t, disc, rec)
	if err == nil && haveKey {
		e.classes.Put(ckey, cloneClassification(c))
	}
	return c, err
}

// ClassifyEach classifies every type in ts, running up to Workers
// classifications concurrently, and reports each item's outcome
// independently: errs[i] is non-nil exactly when out[i] is not valid.
// One bad item (a table a theorem rejects, a per-item failure) does not
// poison the rest of the batch — this is the per-item contract behind
// rcserve's POST /v1/classify/batch. Both slices keep the order of ts.
func (e *Engine) ClassifyEach(ctx context.Context, ts []spec.Type, limit int) (out []checker.Classification, errs []error) {
	out = make([]checker.Classification, len(ts))
	errs = make([]error, len(ts))
	sem := make(chan struct{}, max(e.workers, 1))
	var wg sync.WaitGroup
	for i, t := range ts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			out[i], errs[i] = e.Classify(ctx, t, limit)
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
