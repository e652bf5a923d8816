package census

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rcons/internal/atlas"
	"rcons/internal/engine"
	"rcons/internal/obs"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// Options configures a census run. The zero value is not runnable; use
// at least one generation stage (Bounds, Random or MutantsPerZoo) and a
// Limit ≥ 2.
type Options struct {
	// Bounds selects the exhaustive-enumeration stage; the zero value
	// skips it.
	Bounds atlas.Bounds
	// Random is the number of seeded random tables to sample; they are
	// drawn with dimensions uniform in 2..RandomBounds.States states,
	// 1..RandomBounds.Ops ops and 1..RandomBounds.Resps responses.
	Random       int
	RandomBounds atlas.Bounds
	// MutantsPerZoo applies this many mutation chains to every
	// tabulatable zoo type.
	MutantsPerZoo int
	// Seed drives the random and mutation stages.
	Seed int64
	// Limit is the classification scan limit (n = 2..Limit).
	Limit int
	// Workers bounds concurrent classifications; ≤ 0 means the engine's
	// worker count.
	Workers int
	// Timeout is the per-type classification deadline; 0 means 60s. A
	// fired timeout records the type under Skipped instead of failing
	// the census (and voids byte-reproducibility for that run).
	Timeout time.Duration
	// Engine is the classification engine to use; nil builds a fresh
	// one with default options.
	Engine *engine.Engine
	// Prior, when set, resumes from an earlier artifact: rows recorded
	// there at the same Limit are reused instead of re-classified.
	Prior *Artifact
	// Progress, when non-nil, receives periodic samples of rows done vs
	// total (plus the engine's persist hits and misses) every
	// ProgressInterval during the classification stage, and one final
	// flush when the run ends. Publishing samples atomics off the worker
	// hot path; artifacts are byte-identical with or without a sink.
	Progress obs.Sink
	// ProgressInterval is the progress sampling period; 0 means 1s.
	ProgressInterval time.Duration
	// Store, when set, is the persistent resume path: rows found under
	// their dedup key (at the same Limit and schema version) are reused
	// instead of re-classified, and every classified row — including
	// ones reused from Prior — is written through, so census shards
	// survive restarts and are shared across binaries. Reused rows are
	// byte-identical to recomputed ones (classification is
	// deterministic), so the artifact's reproducibility guarantee holds
	// with or without a warm store.
	Store engine.Persist
}

// rowStoreKind namespaces census rows inside the shared store.
const rowStoreKind = "census-row"

// rowStoreKey addresses one classified row: the generation dedup key
// qualified by scan limit and artifact schema version.
func rowStoreKey(key string, limit int) string {
	return fmt.Sprintf("v%d/limit=%d/%s", Version, limit, key)
}

// DefaultRandomBounds is used when Options.RandomBounds is zero: up to 4
// states, 3 ops, 3 responses — the same envelope as the checker's
// brute-force differential tests.
var DefaultRandomBounds = atlas.Bounds{States: 4, Ops: 3, Resps: 3}

// classify classifies one census item on its worker. It is a variable
// so that tests can make a classification fail mid-run.
var classify = (*engine.Worker).Classify

// item is one generated candidate awaiting classification.
type item struct {
	key    string
	source string
	dims   string
	typ    spec.Type
}

// Run executes the census: generate (single-threaded, deterministic),
// dedup on the atlas canonical key (and, for zoo mutants, on the exact
// engine fingerprint — see mutantKey), classify with bounded concurrency and
// per-type timeouts, then aggregate into an Artifact. See the package
// comment for the determinism guarantees. The first classification
// error ends the run with that error; once ctx is done, Run returns
// ctx.Err().
func Run(ctx context.Context, o Options) (*Artifact, error) {
	ctx, span := obs.StartSpan(ctx, "census.run")
	defer span.End()
	if o.Limit < 2 {
		span.MarkError()
		return nil, fmt.Errorf("census: limit must be ≥ 2, got %d", o.Limit)
	}
	zero := atlas.Bounds{}
	if o.Bounds == zero && o.Random <= 0 && o.MutantsPerZoo <= 0 {
		return nil, fmt.Errorf("census: nothing to generate (set Bounds, Random or MutantsPerZoo)")
	}
	if o.RandomBounds == zero {
		o.RandomBounds = DefaultRandomBounds
	}
	if o.Random > 0 {
		rb := o.RandomBounds
		if rb.States < 2 || rb.Ops < 1 || rb.Resps < 1 {
			return nil, fmt.Errorf("census: random bounds need ≥2 states, ≥1 op and ≥1 resp, got %+v", rb)
		}
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	eng := o.Engine
	if eng == nil {
		eng = engine.New(engine.Options{})
	}
	workers := o.Workers
	if workers <= 0 {
		workers = eng.Workers()
	}

	art := &Artifact{Summary: Summary{
		Version: Version,
		Seed:    o.Seed,
		Limit:   o.Limit,
		Bounds:  o.Bounds, Random: o.Random, RandomBounds: o.RandomBounds,
		MutantsPerZoo:   o.MutantsPerZoo,
		RconsBands:      map[string]int{},
		ConsBands:       map[string]int{},
		Levels:          map[string]int{},
		NovelRconsBands: []string{},
		Skipped:         []string{},
		Extremal:        Extremal{PerRconsBand: map[string]Entry{}, Gaps: []Entry{}},
	}}

	items, raw, dups, err := generate(o)
	if err != nil {
		return nil, err
	}
	art.Raw = raw
	art.Rows = make(map[string]Row, len(items))
	art.Generated = len(items) + dups
	art.Duplicates = dups

	// Classify, reusing rows from the prior artifact and the persistent
	// store where possible. Prior wins (it needs no I/O); either way a
	// reused row is written through so the store warms up.
	putRow := func(key string, row Row) {
		if o.Store == nil {
			return
		}
		if data, err := json.Marshal(row); err == nil {
			// Store failures degrade future resumes, never this census.
			_ = o.Store.Put(ctx, rowStoreKind, rowStoreKey(key, o.Limit), data)
		}
	}
	todo := make([]item, 0, len(items))
	for _, it := range items {
		if o.Prior != nil && o.Prior.Limit == o.Limit {
			if row, ok := o.Prior.Rows[it.key]; ok {
				art.Rows[it.key] = row
				putRow(it.key, row)
				continue
			}
		}
		if o.Store != nil {
			if data, ok, err := o.Store.Get(ctx, rowStoreKind, rowStoreKey(it.key, o.Limit)); err == nil && ok {
				var row Row
				if json.Unmarshal(data, &row) == nil && row.Name != "" {
					art.Rows[it.key] = row
					continue
				}
			}
		}
		todo = append(todo, it)
	}

	// Progress: rows reused from Prior or the store count as done
	// immediately; workers bump the counter as they classify.
	var rowsDone atomic.Int64
	rowsDone.Store(int64(len(art.Rows)))
	start := time.Now()
	trace := obs.TraceID(ctx)
	stopProgress := obs.PublishEvery(o.ProgressInterval, o.Progress, func() obs.Progress {
		done := rowsDone.Load()
		elapsed := time.Since(start)
		var rate float64
		if secs := elapsed.Seconds(); secs > 0 {
			rate = float64(done) / secs
		}
		es := eng.Stats()
		return obs.Progress{
			Task:          "census",
			TraceID:       trace,
			Nodes:         done,
			NodesPerSec:   rate,
			RowsDone:      done,
			RowsTotal:     int64(len(items)),
			PersistHits:   es.PersistHits,
			PersistMisses: es.PersistMisses,
			Elapsed:       elapsed,
		}
	})
	defer stopProgress()

	// The engine's batch loop claims todo[i] in order; its goroutines
	// stop at the first error or once ctx is done. Each goroutine times
	// its items with its own reusable deadline.
	var (
		mu       sync.Mutex
		skipped  []string
		firstErr error
		failed   atomic.Bool
	)
	deadlines := make([]*itemDeadline, min(workers, len(todo)))
	for k := range deadlines {
		deadlines[k] = newItemDeadline(ctx)
	}
	eng.Each(workers, len(todo), func(w *engine.Worker, i int) bool {
		if failed.Load() || ctx.Err() != nil {
			return false
		}
		it, d := todo[i], deadlines[w.Index()]
		c, err := classify(w, d.start(o.Timeout), it.typ, o.Limit)
		d.finish()
		rowsDone.Add(1)
		var row Row
		if err == nil {
			row = rowFromClassification(c, it.source, it.dims)
			putRow(it.key, row) // store I/O outside the artifact mutex
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			art.Rows[it.key] = row
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			skipped = append(skipped, it.key)
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("census: classify %s: %w", it.typ.Name(), err)
			}
			failed.Store(true)
		}
		return true
	})
	for _, d := range deadlines {
		d.stop()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Strings(skipped)
	art.Skipped = skipped
	art.Types = len(art.Rows)

	// Zoo comparison at the same limit.
	zoo, err := eng.Scan(ctx, o.Limit)
	if err != nil {
		return nil, fmt.Errorf("census: zoo scan: %w", err)
	}
	zooBands := map[string]bool{}
	for _, c := range zoo {
		art.Zoo = append(art.Zoo, ZooEntry{
			Name: c.TypeName, Readable: c.Readable,
			Cons: c.ConsBand(), Rcons: c.RconsBand(),
		})
		zooBands[c.RconsBand()] = true
	}

	// Aggregates, all in deterministic (sorted-key) order.
	for _, key := range sortedKeys(art.Rows) {
		r := art.Rows[key]
		art.RconsBands[r.Rcons.Display]++
		art.ConsBands[r.Cons.Display]++
		art.Levels[r.levelKey()]++
		_, haveBand := art.Extremal.PerRconsBand[r.Rcons.Display]
		gap := r.Rcons.Hi != UnboundedHi && r.Cons.Lo > r.Rcons.Hi && len(art.Extremal.Gaps) < GapCap
		if haveBand && !gap {
			continue
		}
		// Only gallery entries carry a type's JSON, so it is looked up
		// and encoded here, for the few types that become one. Every
		// row's key is an item's.
		i := slices.IndexFunc(items, func(it item) bool { return it.key == key })
		tj, err := marshalTable(items[i].typ)
		if err != nil {
			return nil, err
		}
		entry := Entry{
			Key: key, Name: r.Name, Source: r.Source,
			Cons: r.Cons.Display, Rcons: r.Rcons.Display,
			Table: tj,
		}
		if !haveBand {
			art.Extremal.PerRconsBand[r.Rcons.Display] = entry
		}
		if gap {
			art.Extremal.Gaps = append(art.Extremal.Gaps, entry)
		}
	}
	for band := range art.RconsBands {
		if !zooBands[band] {
			art.NovelRconsBands = append(art.NovelRconsBands, band)
		}
	}
	sort.Strings(art.NovelRconsBands)
	return art, nil
}

// generate produces the full candidate list deterministically:
// enumeration first, then random sampling, then zoo mutants. Dedup is by
// key — atlas canonical keys ("atlas:…" labels) for dense tables; for
// mutants, whose restricted initial-state sets the relabeling quotient
// cannot express, the exact engine fingerprint computed under a neutral
// name plus a readability bit (prefixed "f:").
func generate(o Options) (items []item, raw, dups int, err error) {
	// dims renders each (states, ops, resps) once: every table of a
	// block shares its string.
	dimsOf := map[[3]int]string{}
	dims := func(t *atlas.Table) string {
		k := [3]int{t.NumStates(), t.NumOps(), t.NumResps()}
		d, ok := dimsOf[k]
		if !ok {
			d = t.Dims()
			dimsOf[k] = d
		}
		return d
	}
	mutants := 0
	if o.MutantsPerZoo > 0 {
		mutants = o.MutantsPerZoo * len(types.Zoo())
	}
	size := o.Random + mutants
	zero := atlas.Bounds{}
	if b := o.Bounds; b != zero && b.Valid() == nil {
		// A class holds at most States!·Ops! raw tables (responses come
		// unlabeled), so the block has at least RawCount/(States!·Ops!)
		// classes; symmetric tables add some (7% in 3×2×2), so an
		// eighth more is reserved.
		perms := int64(len(atlas.Permutations(b.States)) * len(atlas.Permutations(b.Ops)))
		size += int(min(b.RawCount()/perms/8*9, 1<<20))
	}
	items = make([]item, 0, size)
	if o.Bounds != zero {
		// Enumerate yields each class once, so its items need no dedup.
		r, _, eerr := atlas.Enumerate(o.Bounds, func(key string, t *atlas.Table) bool {
			items = append(items, item{key: key, source: "enum", dims: dims(t), typ: t})
			return true
		})
		if eerr != nil {
			return nil, 0, 0, eerr
		}
		raw = r
	}
	// Random tables may repeat an enumerated class; mutant keys ("f:…")
	// never match an atlas key.
	seen := make(map[string]bool, len(items)+o.Random+mutants)
	if o.Random > 0 {
		for _, it := range items {
			seen[it.key] = true
		}
	}
	add := func(it item) {
		if seen[it.key] {
			dups++
			return
		}
		seen[it.key] = true
		items = append(items, it)
	}

	if o.Random > 0 {
		rb := o.RandomBounds // validated by Run
		rng := rand.New(rand.NewSource(o.Seed))
		for i := 0; i < o.Random; i++ {
			states := 2 + rng.Intn(rb.States-1)
			ops := 1 + rng.Intn(rb.Ops)
			resps := 1 + rng.Intn(rb.Resps)
			t := atlas.Random(rng, states, ops, resps)
			canon, key, ok := t.CanonicalWithKey()
			if !ok {
				return nil, 0, 0, fmt.Errorf("census: random table %s not canonicalizable", t.Dims())
			}
			canon = canon.WithLabel("atlas:" + key)
			add(item{key: key, source: "random", dims: dims(canon), typ: canon})
		}
	}

	if o.MutantsPerZoo > 0 {
		rng := rand.New(rand.NewSource(o.Seed + 1))
		for _, zt := range types.Zoo() {
			base, terr := atlas.Tabulate(zt, 3, 2048)
			if terr != nil {
				continue // deterministic: the same types always skip
			}
			for m := 0; m < o.MutantsPerZoo; m++ {
				mut := atlas.Mutate(rng, base, 1+rng.Intn(3))
				key, ok := mutantKey(mut, o.Limit)
				if !ok {
					continue
				}
				mut.TypeName = fmt.Sprintf("%s~m%d", zt.Name(), m)
				add(item{key: key, source: "mutant", typ: mut})
			}
		}
	}
	return items, raw, dups, nil
}

// marshalTable encodes a generated type's transition table for the
// gallery.
func marshalTable(t spec.Type) (json.RawMessage, error) {
	var c *types.Custom
	switch v := t.(type) {
	case *atlas.Table:
		c = v.Custom()
	case *types.Custom:
		c = v
	default:
		return nil, fmt.Errorf("census: cannot marshal %T", t)
	}
	return json.Marshal(c)
}

// mutantKey derives the dedup key of a mutated transition table: the
// exact engine fingerprint computed under a neutral name — so
// structurally identical mutants collide despite their distinct display
// names — plus a readability bit, which the transition-table
// fingerprint does not cover but the classification depends on.
func mutantKey(c *types.Custom, limit int) (string, bool) {
	anon := *c
	anon.TypeName = "mutant"
	fp, ok := engine.Fingerprint(&anon, limit)
	if !ok {
		return "", false
	}
	key := "f:" + fp
	if !c.IsReadable() {
		key += ":nr"
	}
	return key, true
}
