// Command rcatlas drives the type-universe generator and census
// pipeline (internal/atlas, internal/atlas/census): it enumerates or
// samples machine-generated deterministic types, streams them through
// the parallel classification engine, and writes a versioned,
// byte-reproducible census artifact.
//
// Usage:
//
//	rcatlas enumerate [-states 3 -ops 3 -resps 1] [-json] [-max-raw N]
//	    count (or, with -json, emit as JSON lines) every canonical type
//	    within the bounds
//
//	rcatlas sample [-n 20] [-seed 1] [-states 4 -ops 3 -resps 3] [-mutate]
//	    emit n seeded random tables as JSON lines; with -mutate, emit
//	    mutants of the built-in zoo instead
//
//	rcatlas census [-states 3 -ops 3 -resps 1] [-random 10000]
//	        [-mutants 2] [-seed 1] [-limit 3] [-parallel 0]
//	        [-timeout 60s] [-out ATLAS.json] [-resume prior.json]
//	        [-store DIR] [-progress 2s]
//	    run the full census and write the artifact; -resume reuses the
//	    rows of a previous artifact at the same limit, and -store
//	    persists every classified row (and the engine's memoized
//	    searches) in a crash-safe content-addressed store so reruns —
//	    and rcserve pointed at the same directory — skip finished work
//
//	rcatlas verify -in ATLAS.json [-novel]
//	    check an artifact's structural invariants; with -novel, also
//	    require a generated type outside every zoo rcons band
//
//	rcatlas compact -store DIR [-budget 256M]
//	    offline store compaction: drop quarantine debris, rewrite the
//	    live records of every pack whose writer has exited into one
//	    fresh pack (reclaiming evicted, overwritten and damaged bytes),
//	    and (with -budget) evict LRU records until the store fits
//
// census also accepts -store-budget (cap the store's disk usage with
// size-aware LRU eviction) and -store-peer (read classification results
// through one or more running rcserve replicas' /v1/store routes,
// checksums re-verified on receipt; misses fall back to computing).
//
// The census artifact is byte-identical across reruns with the same
// seed and across -parallel worker counts, so `cmp` on two artifacts is
// a meaningful CI check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"rcons/internal/atlas"
	"rcons/internal/atlas/census"
	"rcons/internal/engine"
	"rcons/internal/obs"
	"rcons/internal/store"
	"rcons/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcatlas:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rcatlas <enumerate|sample|census|verify|compact> [flags]")
	}
	switch args[0] {
	case "enumerate":
		return runEnumerate(args[1:], stdout)
	case "sample":
		return runSample(args[1:], stdout)
	case "census":
		return runCensus(args[1:], stdout)
	case "verify":
		return runVerify(args[1:], stdout)
	case "compact":
		return runCompact(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want enumerate, sample, census, verify or compact)", args[0])
	}
}

func boundsFlags(fs *flag.FlagSet, states, ops, resps int) *atlas.Bounds {
	b := &atlas.Bounds{}
	fs.IntVar(&b.States, "states", states, "maximum state count")
	fs.IntVar(&b.Ops, "ops", ops, "maximum operation count")
	fs.IntVar(&b.Resps, "resps", resps, "maximum distinct responses")
	return b
}

func runEnumerate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rcatlas enumerate", flag.ContinueOnError)
	b := boundsFlags(fs, 3, 3, 1)
	asJSON := fs.Bool("json", false, "emit each canonical type as one JSON line")
	maxRaw := fs.Int64("max-raw", 50_000_000, "refuse bounds whose raw table count exceeds this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := b.Valid(); err != nil {
		return err
	}
	if rc := b.RawCount(); rc > *maxRaw {
		return fmt.Errorf("bounds %s enumerate %d raw tables, above the -max-raw budget %d", b, rc, *maxRaw)
	}
	start := time.Now()
	var encErr error
	raw, kept, err := atlas.Enumerate(*b, func(key string, t *atlas.Table) bool {
		if *asJSON {
			data, err := json.Marshal(t.Custom())
			if err != nil {
				encErr = err
				return false
			}
			fmt.Fprintln(stdout, string(data))
		}
		return true
	})
	if err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}
	fmt.Fprintf(stdout, "enumerated %s: %d raw tables, %d canonical types (%.2fs)\n",
		b, raw, kept, time.Since(start).Seconds())
	return nil
}

func runSample(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rcatlas sample", flag.ContinueOnError)
	b := boundsFlags(fs, 4, 3, 3)
	n := fs.Int("n", 20, "number of tables to sample")
	seed := fs.Int64("seed", 1, "sampling seed")
	mutate := fs.Bool("mutate", false, "emit mutants of the built-in zoo instead of random tables")
	mutations := fs.Int("mutations", 2, "mutations per mutant (with -mutate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	if *mutate {
		emitted := 0
		for _, zt := range types.Zoo() {
			base, err := atlas.Tabulate(zt, 3, 2048)
			if err != nil {
				continue
			}
			for i := 0; i < *n; i++ {
				m := atlas.Mutate(rng, base, *mutations)
				m.TypeName = fmt.Sprintf("%s~m%d", zt.Name(), i)
				data, err := json.Marshal(m)
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, string(data))
				emitted++
			}
		}
		fmt.Fprintf(os.Stderr, "rcatlas: %d mutants (%d per zoo type, seed %d)\n", emitted, *n, *seed)
		return nil
	}
	if b.States < 2 {
		return fmt.Errorf("-states must be ≥ 2 for sampling, got %d", b.States)
	}
	for i := 0; i < *n; i++ {
		states := 2 + rng.Intn(b.States-1)
		ops := 1 + rng.Intn(b.Ops)
		resps := 1 + rng.Intn(b.Resps)
		t := atlas.Random(rng, states, ops, resps)
		data, err := json.Marshal(t.Custom())
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
	}
	return nil
}

func runCensus(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rcatlas census", flag.ContinueOnError)
	b := boundsFlags(fs, 3, 3, 1)
	random := fs.Int("random", 10_000, "seeded random tables to add (0 disables)")
	randStates := fs.Int("rand-states", census.DefaultRandomBounds.States, "max states of random tables")
	randOps := fs.Int("rand-ops", census.DefaultRandomBounds.Ops, "max ops of random tables")
	randResps := fs.Int("rand-resps", census.DefaultRandomBounds.Resps, "max responses of random tables")
	mutants := fs.Int("mutants", 2, "mutants per zoo type (0 disables)")
	seed := fs.Int64("seed", 1, "seed for sampling and mutation")
	limit := fs.Int("limit", 3, "classification scan limit (n = 2..limit)")
	parallel := fs.Int("parallel", 0, "concurrent classifications (0 = all CPUs)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-type classification deadline")
	out := fs.String("out", "ATLAS.json", `artifact path ("" skips writing)`)
	resume := fs.String("resume", "", "reuse rows from this prior artifact")
	storeDir := fs.String("store", "", "persist rows + searches in a content-addressed store under this directory")
	storeBudget := fs.String("store-budget", "", "disk budget for -store, e.g. 256M (empty = unlimited)")
	storePeer := fs.String("store-peer", "", "comma-separated peer rcserve base URLs to read results through")
	peerTimeout := fs.Duration("store-peer-timeout", 2*time.Second, "per-fetch deadline for -store-peer reads")
	noEnum := fs.Bool("no-enum", false, "skip the exhaustive enumeration stage")
	maxRaw := fs.Int64("max-raw", 50_000_000, "refuse bounds whose raw table count exceeds this")
	progress := fs.Duration("progress", 0, "print live rows-done/nodes progress lines to stderr at this interval (e.g. 2s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engOpts := engine.Options{Workers: *parallel}
	o := census.Options{
		Random:        *random,
		RandomBounds:  atlas.Bounds{States: *randStates, Ops: *randOps, Resps: *randResps},
		MutantsPerZoo: *mutants,
		Seed:          *seed,
		Limit:         *limit,
		Workers:       *parallel,
		Timeout:       *timeout,
	}
	if *progress > 0 {
		o.Progress = obs.NewLineSink(os.Stderr)
		o.ProgressInterval = *progress
	}
	backend, st, err := buildStoreTiers(*storeDir, *storeBudget, *storePeer, *peerTimeout)
	if err != nil {
		return err
	}
	if backend != nil {
		o.Store = backend
		engOpts.Persist = backend
	}
	if st != nil {
		fmt.Fprintf(os.Stderr, "rcatlas: store %s (%d entries, %d bytes)\n",
			*storeDir, st.Stats().Entries, st.Stats().Bytes)
	}
	o.Engine = engine.New(engOpts)
	if !*noEnum {
		if err := b.Valid(); err != nil {
			return err
		}
		if rc := b.RawCount(); rc > *maxRaw {
			return fmt.Errorf("bounds %s enumerate %d raw tables, above the -max-raw budget %d", b, rc, *maxRaw)
		}
		o.Bounds = *b
	}
	if *resume != "" {
		prior, err := census.Load(*resume)
		if err != nil {
			return err
		}
		o.Prior = prior
		fmt.Fprintf(os.Stderr, "rcatlas: resuming from %s (%d rows at limit %d)\n",
			*resume, len(prior.Rows), prior.Limit)
	}
	start := time.Now()
	a, err := census.Run(context.Background(), o)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *out != "" {
		if err := a.Save(*out); err != nil {
			return err
		}
	}
	printSummary(stdout, a, elapsed)
	return nil
}

func printSummary(w io.Writer, a *census.Artifact, elapsed time.Duration) {
	fmt.Fprintf(w, "census: %d types (%d raw enumerated, %d generated, %d duplicates) at limit %d in %.2fs",
		a.Types, a.Raw, a.Generated, a.Duplicates, a.Limit, elapsed.Seconds())
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Fprintf(w, " (%.0f types/sec)", float64(a.Types)/secs)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "rcons band histogram:")
	bands := make([]string, 0, len(a.RconsBands))
	for b := range a.RconsBands {
		bands = append(bands, b)
	}
	sort.Strings(bands)
	for _, b := range bands {
		fmt.Fprintf(w, "  %-6s %6d\n", b, a.RconsBands[b])
	}
	if len(a.NovelRconsBands) > 0 {
		fmt.Fprintf(w, "novel rcons bands (no zoo type there): %v\n", a.NovelRconsBands)
		for _, b := range a.NovelRconsBands {
			if e, ok := a.Extremal.PerRconsBand[b]; ok {
				fmt.Fprintf(w, "  witness for %s: %s\n", b, e.Name)
			}
		}
	} else {
		fmt.Fprintln(w, "novel rcons bands: none")
	}
	fmt.Fprintf(w, "cons>rcons gap gallery: %d entries\n", len(a.Extremal.Gaps))
	if len(a.Skipped) > 0 {
		fmt.Fprintf(w, "WARNING: %d types timed out\n", len(a.Skipped))
	}
}

// buildStoreTiers assembles the persist backend from the shared
// -store/-store-budget/-store-peer flags: the local store first (the
// budgeted writer), then each peer, composed into a read-through chain
// when there is more than one tier. Returns the backend to plug into
// the engine/census (nil when no tier is configured) and the local
// store (nil without -store).
func buildStoreTiers(dir, budget, peers string, peerTimeout time.Duration) (engine.Persist, *store.Store, error) {
	var tiers []store.Backend
	var local *store.Store
	if budget != "" && dir == "" {
		return nil, nil, fmt.Errorf("-store-budget requires -store")
	}
	if dir != "" {
		opts := store.Options{}
		if budget != "" {
			b, err := store.ParseSize(budget)
			if err != nil {
				return nil, nil, fmt.Errorf("-store-budget: %w", err)
			}
			opts.BudgetBytes = b
		}
		st, err := store.Open(dir, opts)
		if err != nil {
			return nil, nil, err
		}
		local = st
		tiers = append(tiers, st)
	}
	for _, u := range strings.Split(peers, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		p, err := store.NewPeer(u, peerTimeout)
		if err != nil {
			return nil, nil, err
		}
		tiers = append(tiers, p)
	}
	switch len(tiers) {
	case 0:
		return nil, nil, nil
	case 1:
		return tiers[0], local, nil
	default:
		return store.NewChain(tiers...), local, nil
	}
}

// runCompact is the offline compaction pass over a store directory:
// quarantine debris is dropped, the live records of exited writers'
// packs are rewritten into one fresh pack, and — with -budget — the
// budget is applied by LRU eviction.
func runCompact(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rcatlas compact", flag.ContinueOnError)
	dir := fs.String("store", "", "store directory to compact")
	budget := fs.String("budget", "", "budget on the live records' bytes, e.g. 256M; least recently written records beyond it are dropped (empty = keep every live record)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("compact needs -store <dir>")
	}
	var opts store.Options
	if *budget != "" {
		b, err := store.ParseSize(*budget)
		if err != nil {
			return fmt.Errorf("-budget: %w", err)
		}
		opts.BudgetBytes = b
	}
	st, err := store.Open(*dir, opts)
	if err != nil {
		return err
	}
	cs, err := st.Compact(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout,
		"compacted %s: %d quarantined corpses dropped, %d entries (%d bytes), %d evicted for budget\n",
		*dir, cs.QuarantineRemoved, cs.EntriesAfter, cs.BytesAfter, cs.Evicted)
	return nil
}

func runVerify(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rcatlas verify", flag.ContinueOnError)
	in := fs.String("in", "", "artifact to verify")
	novel := fs.Bool("novel", false, "also require a generated type outside every zoo rcons band")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("verify needs -in <artifact.json>")
	}
	a, err := census.Load(*in)
	if err != nil {
		return err
	}
	if err := a.Verify(*novel); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: ok (%d types, %d rcons bands, novel %v)\n",
		*in, a.Types, len(a.RconsBands), a.NovelRconsBands)
	return nil
}
