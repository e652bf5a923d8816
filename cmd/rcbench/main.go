// Command rcbench is the repository's benchmark and regression driver:
// it runs the registered benchmark suite (internal/bench — the harness
// experiment workloads plus model-checker, engine and simulator
// micro-benchmarks) with fixed iteration budgets, writes a
// machine-readable BENCH_<n>.json artifact, and compares the run
// against the previous committed BENCH_*.json, failing on regressions
// beyond a configurable threshold.
//
// Usage:
//
//	rcbench                 # full budgets, auto-numbered BENCH_<n+1>.json
//	rcbench -quick          # trimmed budgets (CI)
//	rcbench -out BENCH_3.json   # overwrite a specific artifact (the
//	                            # existing file is read as baseline first)
//	rcbench -run 'mc/'      # only benchmarks matching the regexp
//	rcbench -list           # print the registry and exit
//
// Exit codes: 0 ok, 1 execution error, 2 regression beyond threshold.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"

	"rcons/internal/bench"
	"rcons/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rcbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		quick     = fs.Bool("quick", false, "use trimmed iteration budgets (CI mode)")
		out       = fs.String("out", "auto", `artifact path; "auto" picks BENCH_<n+1>.json, "" skips writing`)
		baseline  = fs.String("baseline", "auto", `baseline path; "auto" picks the latest BENCH_*.json, "" disables comparison`)
		dir       = fs.String("dir", ".", "directory for auto-discovered artifacts")
		threshold = fs.Float64("threshold", 0.25, "fail when ns/op regresses by more than this fraction")
		failRegr  = fs.Bool("fail", true, "exit 2 on regression beyond the threshold")
		runFilter = fs.String("run", "", "only run benchmarks whose name matches this regexp")
		list      = fs.Bool("list", false, "list registered benchmarks and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	bench.SetQuick(*quick)
	mode := "full"
	if *quick {
		mode = "quick"
	}

	registry := bench.Registry()
	if *list {
		for _, bm := range registry {
			fmt.Fprintf(stdout, "%-32s iters=%d quick=%d  %s\n", bm.Name, bm.Iters, bm.QuickIters, bm.Doc)
		}
		return 0
	}
	var filter *regexp.Regexp
	if *runFilter != "" {
		var err error
		if filter, err = regexp.Compile(*runFilter); err != nil {
			fmt.Fprintf(stdout, "rcbench: bad -run pattern: %v\n", err)
			return 1
		}
	}

	// Resolve the baseline BEFORE writing anything: -out may legitimately
	// point at the same file (CI overwrites the committed artifact and
	// uploads the result).
	var base *bench.File
	basePath := *baseline
	if basePath == "auto" {
		p, _, err := bench.LatestArtifact(*dir)
		if err != nil {
			fmt.Fprintf(stdout, "rcbench: scanning %s: %v\n", *dir, err)
			return 1
		}
		basePath = p
	}
	if basePath != "" {
		var err error
		if base, err = bench.ReadJSON(basePath); err != nil {
			fmt.Fprintf(stdout, "rcbench: baseline: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "baseline: %s (%s, %s mode)\n", basePath, base.Created, base.Mode)
	} else {
		fmt.Fprintln(stdout, "baseline: none")
	}

	outPath := *out
	if outPath == "auto" {
		if filter != nil {
			// A filtered run measures a subset; auto-numbering it would
			// make the partial file the next auto-discovered baseline and
			// silently shrink the regression gate. Demand an explicit -out.
			fmt.Fprintln(stdout, "note: -run filter active; not writing an auto-numbered artifact (pass -out explicitly to keep a partial file)")
			outPath = ""
		} else {
			_, idx, err := bench.LatestArtifact(*dir)
			if err != nil {
				fmt.Fprintf(stdout, "rcbench: scanning %s: %v\n", *dir, err)
				return 1
			}
			outPath = filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", idx+1))
		}
	}

	var results []bench.Result
	byName := map[string]bench.Benchmark{}
	for _, bm := range registry {
		if filter != nil && !filter.MatchString(bm.Name) {
			continue
		}
		byName[bm.Name] = bm
		res, err := bench.Measure(bm, bm.Budget(*quick))
		if err != nil {
			fmt.Fprintf(stdout, "rcbench: %v\n", err)
			return 1
		}
		line := fmt.Sprintf("%-32s %12.0f ns/op %10.1f allocs/op", res.Name, res.NsPerOp, res.AllocsPerOp)
		if nps, ok := res.Metrics["nodes_per_sec"]; ok {
			line += fmt.Sprintf(" %12.0f nodes/sec", nps)
		}
		fmt.Fprintln(stdout, line)
		results = append(results, res)
	}
	if len(results) == 0 {
		fmt.Fprintln(stdout, "rcbench: no benchmarks matched")
		return 1
	}
	bench.SortResults(results)
	baseResults := gateBaseline(stdout, base, mode, registry)

	// A single timed sample against a 25% gate makes millisecond-scale
	// benchmarks a coin flip on a noisy host. Before trusting a
	// regression, re-measure just the offenders (up to twice) and keep
	// the best observation per quantity: only reproducible slowdowns
	// survive, and genuine ones fail exactly as before.
	for attempt := 0; attempt < 2 && baseResults != nil; attempt++ {
		regressed := map[string]bool{}
		for _, d := range bench.Compare(baseResults, results, *threshold) {
			if d.Regressed {
				regressed[d.Name] = true
			}
		}
		if len(regressed) == 0 {
			break
		}
		for i, r := range results {
			if !regressed[r.Name] {
				continue
			}
			bm, ok := byName[r.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "note: re-measuring %s to confirm regression\n", r.Name)
			again, err := bench.Measure(bm, bm.Budget(*quick))
			if err != nil {
				fmt.Fprintf(stdout, "rcbench: %v\n", err)
				return 1
			}
			results[i] = bench.BestOf(r, again)
		}
	}

	if outPath != "" {
		f := bench.NewFile(mode, results)
		// The runners published their work totals (mc runs and nodes)
		// through the process-wide registry; freeze them into the
		// artifact.
		f.Telemetry = obs.Default().Snapshot()
		if err := f.WriteJSON(outPath); err != nil {
			fmt.Fprintf(stdout, "rcbench: writing artifact: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks, %s mode)\n", outPath, len(results), mode)
	}

	if baseResults == nil {
		return 0
	}
	deltas := bench.Compare(baseResults, results, *threshold)
	regressed := false
	for _, d := range deltas {
		tag := "  "
		switch {
		case d.Regressed:
			tag = "!!"
			regressed = true
		case d.Ratio < 0.8:
			tag = "++"
		}
		fmt.Fprintf(stdout, "%s %-32s %8.2fx  (%g -> %g ns/op)\n", tag, d.Name, d.Ratio, d.OldNs, d.NewNs)
	}
	if regressed {
		fmt.Fprintf(stdout, "rcbench: REGRESSION beyond %.0f%% vs %s\n", *threshold*100, basePath)
		if *failRegr {
			return 2
		}
	}
	return 0
}

// gateBaseline returns the baseline results the regression gate may
// compare against, or nil when there is no baseline. When the baseline
// was recorded in the other mode, workload-varying benchmarks (the
// harness experiments trim their per-iteration work in quick mode, not
// just the iteration count) are excluded — their ns/op are
// incomparable across modes.
func gateBaseline(stdout io.Writer, base *bench.File, mode string, registry []bench.Benchmark) []bench.Result {
	if base == nil {
		return nil
	}
	if base.Mode == mode {
		return base.Results
	}
	varies := map[string]bool{}
	for _, bm := range registry {
		if bm.WorkloadVaries {
			varies[bm.Name] = true
		}
	}
	kept := []bench.Result{}
	for _, r := range base.Results {
		if !varies[r.Name] {
			kept = append(kept, r)
		}
	}
	fmt.Fprintf(stdout, "note: baseline mode %q != current mode %q; workload-varying benchmarks excluded from the gate\n",
		base.Mode, mode)
	return kept
}
