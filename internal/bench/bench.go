// Package bench is the measurement core behind cmd/rcbench: a registry
// of named benchmarks with fixed iteration budgets, a measurement
// harness producing machine-readable results (ns/op, allocs/op, custom
// rates like nodes/sec), and a baseline comparator with a configurable
// regression threshold. It exists so a plain binary can run the
// workloads with deterministic budgets and emit BENCH_*.json artifacts
// that successive PRs are compared against.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metrics carries benchmark-specific counters TOTALLED over all
// iterations of one measurement (e.g. search nodes executed). Measure
// derives per-op figures and per-second rates from them.
type Metrics map[string]float64

// Benchmark is one registered workload. Run must execute exactly iters
// iterations and return its total custom metrics (nil is fine).
type Benchmark struct {
	// Name identifies the benchmark in results and baselines, grouped
	// with slashes ("mc/fingerprint-incremental").
	Name string
	// Doc is a one-line description shown by rcbench -list.
	Doc string
	// Iters and QuickIters are the fixed iteration budgets for full and
	// -quick mode.
	Iters, QuickIters int
	// WorkloadVaries marks benchmarks whose PER-ITERATION work differs
	// between full and quick mode (the harness experiments trim their
	// seeds/sweeps, not just the iteration count). Their ns/op from one
	// mode is incomparable with the other, so the regression gate skips
	// them when the baseline was recorded in a different mode.
	WorkloadVaries bool
	// Run executes iters iterations.
	Run func(iters int) (Metrics, error)
}

// Result is one measured benchmark in the wire format of BENCH_*.json.
type Result struct {
	Name        string             `json:"name"`
	Iters       int                `json:"iters"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Measure runs one benchmark with the given iteration budget: one
// untimed warm-up iteration, a GC to settle the heap, then the timed
// iterations bracketed by memory-stats reads. Allocation figures are
// whole-process deltas, so benchmarks should avoid background work.
func Measure(bm Benchmark, iters int) (Result, error) {
	if iters <= 0 {
		iters = 1
	}
	if _, err := bm.Run(1); err != nil {
		return Result{}, fmt.Errorf("%s (warm-up): %w", bm.Name, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	metrics, err := bm.Run(iters)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", bm.Name, err)
	}
	res := Result{
		Name:        bm.Name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}
	if len(metrics) > 0 {
		res.Metrics = map[string]float64{}
		for k, total := range metrics {
			res.Metrics[k+"_per_op"] = total / float64(iters)
			if secs := elapsed.Seconds(); secs > 0 {
				res.Metrics[k+"_per_sec"] = total / secs
			}
		}
	}
	return res, nil
}

// BestOf merges two measurements of the SAME benchmark into the most
// favorable observation per quantity: minimum ns/op, allocs, bytes and
// *_per_op metrics (costs), maximum *_per_sec metrics (rates). rcbench
// uses it when confirming a suspected regression — the extremum over
// repeated samples is the standard noise-robust estimator of a
// workload's true cost, and only a slowdown that survives it is real.
func BestOf(a, b Result) Result {
	out := a
	out.NsPerOp = min(a.NsPerOp, b.NsPerOp)
	out.AllocsPerOp = min(a.AllocsPerOp, b.AllocsPerOp)
	out.BytesPerOp = min(a.BytesPerOp, b.BytesPerOp)
	for k, v := range b.Metrics {
		ov, ok := out.Metrics[k]
		better := v < ov
		if strings.HasSuffix(k, "_per_sec") {
			better = v > ov
		}
		if !ok || better {
			if out.Metrics == nil {
				out.Metrics = map[string]float64{}
			}
			out.Metrics[k] = v
		}
	}
	return out
}

// Delta is one baseline-vs-current comparison row.
type Delta struct {
	Name string
	// OldNs and NewNs are the baseline and current ns/op.
	OldNs, NewNs float64
	// Ratio is NewNs/OldNs (>1 is slower).
	Ratio float64
	// Regressed is set when Ratio exceeds 1+threshold.
	Regressed bool
}

// Compare matches results by name and flags ns/op regressions beyond
// the threshold (0.25 = fail when more than 25% slower). Benchmarks
// present on only one side are ignored — adding or retiring a benchmark
// is not a regression.
func Compare(baseline, current []Result, threshold float64) []Delta {
	old := map[string]Result{}
	for _, r := range baseline {
		old[r.Name] = r
	}
	var out []Delta
	for _, r := range current {
		b, ok := old[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		d := Delta{Name: r.Name, OldNs: b.NsPerOp, NewNs: r.NsPerOp, Ratio: r.NsPerOp / b.NsPerOp}
		d.Regressed = d.Ratio > 1+threshold
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}
