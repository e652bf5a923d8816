// Command rcons classifies a shared object type in the recoverable
// consensus hierarchy: it scans the n-recording (Definition 4) and
// n-discerning (Definition 2) properties and prints the cons/rcons bands
// the paper's theorems imply, optionally with witnesses and the full
// transition diagram.
//
// It also fronts the crash-schedule model checker (internal/mc): -mc
// systematically verifies one of the repository's RC protocols against
// every interleaving and crash placement within a depth/crash budget,
// printing a minimal replayable counterexample on violation.
//
// Usage:
//
//	rcons -type S_3 [-limit 6] [-parallel 0] [-store DIR] [-witness] [-diagram]
//	rcons -list
//	rcons -mc team-sn [-mc-n 2] [-mc-depth 8] [-mc-crashes 1]
//	rcons -mc-list
//
// With -progress DURATION (and -parallel or -mc), live search-progress
// lines — nodes explored, nodes/sec, depth, and with -store the store
// hit rate — are printed to stderr at that interval, plus one final
// line on completion.
//
// With -parallel and -store DIR, per-level search results are read from
// and written through to the same crash-safe content-addressed store
// rcatlas and rcserve use, so a classification computed once — by any
// of the three binaries — is never recomputed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/harness"
	"rcons/internal/mc"
	"rcons/internal/obs"
	"rcons/internal/spec"
	"rcons/internal/store"
	"rcons/internal/types"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rcons:", err)
		os.Exit(1)
	}
}

// buildPersist assembles the engine's persist backend from the
// -store/-store-budget/-store-peer flags: the local store first (the
// budgeted writer), then each peer replica, chained with read-through
// write-back when both are present. nil when neither flag is set.
func buildPersist(dir, budget, peers string, peerTimeout time.Duration) (engine.Persist, error) {
	var tiers []store.Backend
	if budget != "" && dir == "" {
		return nil, fmt.Errorf("-store-budget requires -store")
	}
	if dir != "" {
		opts := store.Options{}
		if budget != "" {
			b, err := store.ParseSize(budget)
			if err != nil {
				return nil, fmt.Errorf("-store-budget: %w", err)
			}
			opts.BudgetBytes = b
		}
		st, err := store.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, st)
	}
	for _, u := range strings.Split(peers, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		p, err := store.NewPeer(u, peerTimeout)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, p)
	}
	switch len(tiers) {
	case 0:
		return nil, nil
	case 1:
		return tiers[0], nil
	default:
		return store.NewChain(tiers...), nil
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rcons", flag.ContinueOnError)
	typeName := fs.String("type", "", "type to classify (e.g. register, cas, stack, T_5, S_3)")
	specFile := fs.String("spec", "", "classify a custom type from a JSON transition table instead of a built-in")
	limit := fs.Int("limit", 6, "scan the properties for n = 2..limit")
	parallel := fs.Int("parallel", 0, "classify on the sharded engine with this many workers (-1 = all CPUs, 0 = sequential)")
	storeDir := fs.String("store", "", "with -parallel: persist search results in this store directory")
	storeBudget := fs.String("store-budget", "", "disk budget for -store, e.g. 256M (empty = unlimited)")
	storePeer := fs.String("store-peer", "", "with -parallel: comma-separated peer rcserve base URLs to read search results through")
	peerTimeout := fs.Duration("store-peer-timeout", 2*time.Second, "per-fetch deadline for -store-peer reads")
	witness := fs.Bool("witness", false, "print the maximal recording/discerning witnesses")
	diagram := fs.Bool("diagram", false, "print the type's transition diagram")
	list := fs.Bool("list", false, "list the built-in type zoo and exit")
	mcTarget := fs.String("mc", "", "model-check the named RC protocol (see -mc-list) instead of classifying a type")
	mcList := fs.Bool("mc-list", false, "list the model-checkable protocols and exit")
	mcN := fs.Int("mc-n", 2, "process count for -mc")
	mcDepth := fs.Int("mc-depth", 8, "schedule-depth bound for -mc")
	mcCrashes := fs.Int("mc-crashes", 1, "crash-budget bound for -mc")
	mcBudget := fs.Int("mc-budget", 0, "node budget before -mc falls back to swarm fuzzing (0 = default)")
	progress := fs.Duration("progress", 0, "print live search-progress lines to stderr at this interval (e.g. 1s; needs -parallel or -mc)")
	traceSample := fs.Int("trace-sample", 0, "trace 1 in N runs and dump the slowest span trees to stderr on exit (0 = off, 1 = every run)")
	recorderCap := fs.Int("recorder", 16, "completed traces the flight recorder retains for the -trace-sample dump")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceSample < 0 {
		return fmt.Errorf("-trace-sample must be ≥ 0, got %d", *traceSample)
	}

	// tracer stays nil (and every span free) without -trace-sample; the
	// deferred dump renders the slowest recorded trees after the run.
	var tracer *obs.Tracer
	if *traceSample > 0 {
		rec := obs.NewRecorder(*recorderCap)
		tracer = obs.NewTracer(*traceSample, rec)
		defer dumpSlowestTraces(rec)
	}

	if *mcList {
		for _, name := range mc.Targets() {
			fmt.Printf("%-20s %s\n", name, mc.TargetDoc(name))
		}
		return nil
	}
	var progressSink obs.Sink
	if *progress > 0 {
		progressSink = obs.NewLineSink(os.Stderr)
	}

	if *mcTarget != "" {
		return runModelCheck(*mcTarget, *mcN, *mcDepth, *mcCrashes, *mcBudget, progressSink, *progress, tracer)
	}

	if *list {
		for _, t := range types.Zoo() {
			readable := "readable"
			if !types.Readable(t) {
				readable = "non-readable"
			}
			fmt.Printf("%-24s %s\n", t.Name(), readable)
		}
		return nil
	}
	var t spec.Type
	switch {
	case *specFile != "":
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		custom, err := types.NewCustomFromJSON(data)
		if err != nil {
			return err
		}
		t = custom
	case *typeName != "":
		var err error
		t, err = types.ByName(*typeName)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("missing -type or -spec (or use -list); try: rcons -type S_3")
	}
	var c checker.Classification
	var err error
	ctx, root := tracer.StartTrace(context.Background(), "rcons.classify", "", false)
	switch {
	case *parallel != 0:
		workers := *parallel
		if workers < 0 {
			workers = 0 // engine default: all CPUs
		}
		opts := engine.Options{Workers: workers}
		persist, serr := buildPersist(*storeDir, *storeBudget, *storePeer, *peerTimeout)
		if serr != nil {
			return serr
		}
		if persist != nil {
			opts.Persist = persist
		}
		eng := engine.New(opts)
		if progressSink != nil {
			stop := eng.PublishProgress(*progress, progressSink, "")
			defer stop()
		}
		c, err = eng.Classify(ctx, t, *limit)
	case *storeDir != "" || *storePeer != "":
		return fmt.Errorf("-store/-store-peer need the engine: pass -parallel N (e.g. -parallel -1)")
	case progressSink != nil:
		return fmt.Errorf("-progress needs a publishing search: pass -parallel N or -mc TARGET")
	default:
		c, err = checker.Classify(t, *limit)
	}
	if err != nil {
		root.MarkError()
		root.End()
		return err
	}
	root.End()

	fmt.Printf("type:            %s\n", c.TypeName)
	fmt.Printf("readable:        %v\n", c.Readable)
	fmt.Printf("max n-discerning: %s\n", c.Discerning)
	fmt.Printf("max n-recording:  %s\n", c.Recording)
	fmt.Printf("cons band:       %s\n", c.ConsBand())
	fmt.Printf("rcons band:      %s\n", c.RconsBand())
	if !c.Readable {
		fmt.Println("note: type is not readable — Theorems 3 and 8 do not apply, so the")
		fmt.Println("      property levels above imply no lower bounds (cf. Appendix H).")
	}

	if *witness {
		if c.Recording.Witness != nil {
			fmt.Printf("recording witness (n=%d):  %s\n", c.Recording.Witness.N(), c.Recording.Witness)
		}
		if c.Discerning.Witness != nil {
			fmt.Printf("discerning witness (n=%d): %s\n", c.Discerning.Witness.N(), c.Discerning.Witness)
		}
	}
	if *diagram {
		q0 := t.InitialStates()[0]
		d, err := harness.Diagram(t, q0)
		if err != nil {
			return err
		}
		fmt.Println(strings.TrimRight(d, "\n"))
	}
	return nil
}

// runModelCheck drives internal/mc for the -mc mode and renders the
// verdict, stats and any counterexample.
func runModelCheck(target string, n, depth, crashes, nodeBudget int, progress obs.Sink, interval time.Duration, tracer *obs.Tracer) error {
	tgt, err := mc.TargetByName(target, n)
	if err != nil {
		return err
	}
	ctx, root := tracer.StartTrace(context.Background(), "rcons.mc", "", false)
	defer root.End()
	res, err := mc.Check(ctx, tgt, mc.Options{
		MaxDepth:         depth,
		CrashBudget:      crashes,
		NodeBudget:       nodeBudget,
		Progress:         progress,
		ProgressInterval: interval,
	})
	if err != nil {
		root.MarkError()
		return err
	}

	mode := "swarm fuzzing (node budget exceeded)"
	switch {
	case res.Complete:
		mode = "exhaustive, complete (whole space within the crash budget)"
	case res.Exhaustive:
		mode = "exhaustive within the depth bound"
	}
	fmt.Printf("target:      %s (n=%d, %s crashes)\n", res.Target, n, res.Model)
	fmt.Printf("bounds:      depth ≤ %d, crashes ≤ %d\n", res.MaxDepth, res.CrashBudget)
	fmt.Printf("mode:        %s\n", mode)
	fmt.Printf("effort:      %d prefixes, %d pruned, %d replays, %d completions, %d swarm runs, %d rounds\n",
		res.Stats.Nodes, res.Stats.Pruned, res.Stats.Replays, res.Stats.Completions, res.Stats.SwarmRuns, res.Stats.Rounds)
	if res.Safe {
		fmt.Println("verdict:     SAFE")
		return nil
	}
	fmt.Println("verdict:     VIOLATION")
	fmt.Printf("minimal counterexample (replayable):\n%s", res.CE)
	return fmt.Errorf("model checking found a violation in %s", res.Target)
}

// dumpSlowestTraces renders the recorded span trees slowest-first on
// stderr, keeping stdout parseable for scripts.
func dumpSlowestTraces(rec *obs.Recorder) {
	for _, tr := range rec.Slowest() {
		fmt.Fprintln(os.Stderr)
		obs.WriteTraceTree(os.Stderr, tr)
	}
}
