package bench

import (
	"context"
	"fmt"

	"rcons/internal/atlas"
	"rcons/internal/atlas/census"
	"rcons/internal/compile"
	"rcons/internal/engine"
	"rcons/internal/harness"
	"rcons/internal/mc"
	"rcons/internal/obs"
	"rcons/internal/sim"
	"rcons/internal/types"
)

// harnessOpts mirrors the budgets of the root bench_test.go experiment
// benchmarks; quickOpts trims the sampling dimensions further for CI.
func harnessOpts(quick bool) harness.Options {
	if quick {
		return harness.Options{Seeds: 4, MaxN: 3, Limit: 4}
	}
	return harness.Options{Seeds: 10, MaxN: 4, Limit: 5}
}

// Registry returns every registered benchmark: the harness experiment
// suite (the same workloads as the root bench_test.go), the model
// checker's search and fingerprint micro-benchmarks, the classification
// engine, and the simulator/memory primitives.
func Registry() []Benchmark {
	var out []Benchmark

	for _, e := range harness.All() {
		out = append(out, Benchmark{
			Name:  "harness/" + e.ID,
			Doc:   e.Title,
			Iters: 2, QuickIters: 1,
			WorkloadVaries: true, // quick mode trims the experiment itself
			Run:            experimentRunner(e),
		})
	}

	out = append(out,
		Benchmark{
			Name:  "mc/check-team-sn",
			Doc:   "exhaustive model check of Figure 2 over S_2 (depth 9, 1 crash)",
			Iters: 3, QuickIters: 3,
			Run: mcCheckRunner("team-sn", 2, mc.Options{MaxDepth: 9, CrashBudget: 1}, true),
		},
		Benchmark{
			Name:  "mc/check-cas-deep",
			Doc:   "exhaustive model check of CAS consensus (depth 12, 2 crashes)",
			Iters: 3, QuickIters: 3,
			Run: mcCheckRunner("cas", 2, mc.Options{MaxDepth: 12, CrashBudget: 2}, true),
		},
		Benchmark{
			Name:  "mc/counterexample-noyield",
			Doc:   "find+minimize the §3.1 no-yield agreement violation (depth 12)",
			Iters: 3, QuickIters: 3,
			Run: mcCheckRunner("unsafe-noyield", 2, mc.Options{MaxDepth: 12, CrashBudget: 1}, false),
		},
		Benchmark{
			Name:  "mc/fingerprint-incremental",
			Doc:   "incremental configuration fingerprint (interned digests) on a fixed prefix",
			Iters: 300_000, QuickIters: 50_000,
			Run: fingerprintRunner,
		},
		Benchmark{
			Name:  "engine/classify-T5",
			Doc:   "cold sharded parallel classification of T_5 at limit 5",
			Iters: 3, QuickIters: 1,
			Run: func(iters int) (Metrics, error) {
				for i := 0; i < iters; i++ {
					eng := engine.New(engine.Options{})
					if _, err := eng.Classify(context.Background(), types.NewTn(5), 5); err != nil {
						return nil, err
					}
				}
				return nil, nil
			},
		},
		Benchmark{
			Name:  "engine/classify-compiled",
			Doc:   "cold compiled-path classification of the full zoo at limit 4",
			Iters: 3, QuickIters: 1,
			Run: func(iters int) (Metrics, error) {
				for i := 0; i < iters; i++ {
					eng := engine.New(engine.Options{})
					if _, err := eng.ClassifyAll(context.Background(), types.Zoo(), 4); err != nil {
						return nil, err
					}
				}
				return nil, nil
			},
		},
		Benchmark{
			Name:  "compile/build-table",
			Doc:   "dense transition-table compilation of T_5 (reachable sweep + interning)",
			Iters: 2_000, QuickIters: 500,
			Run: func(iters int) (Metrics, error) {
				t5 := types.NewTn(5)
				for i := 0; i < iters; i++ {
					if _, err := compile.Compile(t5, 5); err != nil {
						return nil, err
					}
				}
				return nil, nil
			},
		},
		Benchmark{
			Name:  "compile/apply",
			Doc:   "compiled table Apply: two flat array reads per protocol step",
			Iters: 20_000_000, QuickIters: 5_000_000,
			Run: func(iters int) (Metrics, error) {
				c, err := compile.Compile(types.NewTn(5), 5)
				if err != nil {
					return nil, err
				}
				nOps := uint16(c.NumOps())
				si, oi := uint16(0), uint16(0)
				var sink uint16
				for i := 0; i < iters; i++ {
					ns, r := c.Apply(si, oi)
					sink ^= r
					si = ns
					oi++
					if oi == nOps {
						oi = 0
					}
				}
				_ = sink
				return Metrics{"applies": float64(iters)}, nil
			},
		},
		Benchmark{
			Name:  "engine/classify-cached",
			Doc:   "steady-state classification served from the memoization cache",
			Iters: 20_000, QuickIters: 5_000,
			Run: func(iters int) (Metrics, error) {
				eng := engine.New(engine.Options{})
				t := types.NewSn(3)
				if _, err := eng.Classify(context.Background(), t, 5); err != nil {
					return nil, err
				}
				for i := 0; i < iters; i++ {
					if _, err := eng.Classify(context.Background(), t, 5); err != nil {
						return nil, err
					}
				}
				return nil, nil
			},
		},
		Benchmark{
			Name:  "sim/steps",
			Doc:   "raw simulator step throughput (1000 reads per execution)",
			Iters: 20, QuickIters: 5,
			Run: func(iters int) (Metrics, error) {
				const stepsPerRun = 1000
				for i := 0; i < iters; i++ {
					m := sim.NewMemory()
					m.AddRegister("R", sim.None)
					body := func(p *sim.Proc) sim.Value {
						for s := 0; s < stepsPerRun; s++ {
							p.Read("R")
						}
						return "done"
					}
					if _, err := sim.NewRunner(m, []sim.Body{body}, sim.Config{Seed: 1}).Run(); err != nil {
						return nil, err
					}
				}
				return Metrics{"steps": float64(iters * stepsPerRun)}, nil
			},
		},
		Benchmark{
			Name:  "sim/snapshot",
			Doc:   "textual Memory.Snapshot of a 40-cell heap (cached sorted names)",
			Iters: 200_000, QuickIters: 50_000,
			Run: memoryRunner(func(m *sim.Memory) { _ = m.Snapshot() }),
		},
		Benchmark{
			Name:  "sim/digest",
			Doc:   "incremental Memory.Digest of the same heap (O(1))",
			Iters: 2_000_000, QuickIters: 500_000,
			Run: memoryRunner(func(m *sim.Memory) { _ = m.Digest() }),
		},
		Benchmark{
			Name:  "store/get-hit",
			Doc:   "steady-state store read served by the in-memory LRU front",
			Iters: 200_000, QuickIters: 50_000,
			Run: storeGetHitRunner(),
		},
		Benchmark{
			Name:  "store/put",
			Doc:   "crash-safe store write (temp file + fsync + rename), distinct keys",
			Iters: 2_000, QuickIters: 500,
			Run: storePutRunner(),
		},
		Benchmark{
			Name:  "store/evict",
			Doc:   "budgeted store write paying one size-aware LRU eviction per put",
			Iters: 2_000, QuickIters: 500,
			Run: storeEvictRunner(),
		},
		Benchmark{
			Name:  "store/peer-hit",
			Doc:   "peer read-through round-trip: HTTP fetch + envelope re-verification",
			Iters: 5_000, QuickIters: 1_000,
			Run: storePeerHitRunner(),
		},
		Benchmark{
			Name:  "jobs/submit-poll",
			Doc:   "async job round-trip: submit a distinct job, poll it to completion",
			Iters: 2_000, QuickIters: 500,
			Run: jobsSubmitPollRunner(),
		},
		Benchmark{
			Name:  "obs/counter-inc",
			Doc:   "labelled counter increment on the telemetry registry hot path",
			Iters: 5_000_000, QuickIters: 1_000_000,
			Run: func(iters int) (Metrics, error) {
				c := obs.NewRegistry().
					Counter("bench_ops_total", "obs benchmark counter", "path").
					With("/bench")
				for i := 0; i < iters; i++ {
					c.Inc()
				}
				if c.Value() != int64(iters) {
					return nil, fmt.Errorf("counter lost increments: %d != %d", c.Value(), iters)
				}
				return nil, nil
			},
		},
		Benchmark{
			Name:  "obs/histogram-observe",
			Doc:   "histogram observation: bucket binary search + atomic count/sum",
			Iters: 2_000_000, QuickIters: 500_000,
			Run: func(iters int) (Metrics, error) {
				h := obs.NewRegistry().
					Histogram("bench_latency_seconds", "obs benchmark histogram", nil).
					With()
				for i := 0; i < iters; i++ {
					h.Observe(float64(i%97) / 1000)
				}
				return nil, nil
			},
		},
		Benchmark{
			Name:  "atlas/enumerate-3x3",
			Doc:   "canonical enumeration of every ≤3-state ≤3-op ack-only table",
			Iters: 3, QuickIters: 1,
			Run: func(iters int) (Metrics, error) {
				tables := 0.0
				for i := 0; i < iters; i++ {
					raw, _, err := atlas.Enumerate(atlas.Bounds{States: 3, Ops: 3, Resps: 1},
						func(string, *atlas.Table) bool { return true })
					if err != nil {
						return nil, err
					}
					tables += float64(raw)
				}
				return Metrics{"tables": tables}, nil
			},
		},
		Benchmark{
			Name:  "atlas/census-small",
			Doc:   "cold census of the ≤2-state ≤2-op universe + 100 random types at limit 3",
			Iters: 3, QuickIters: 1,
			Run: func(iters int) (Metrics, error) {
				rows := obs.Default().Counter("rc_bench_census_rows_total", "census rows classified by rcbench").With()
				classified := 0.0
				for i := 0; i < iters; i++ {
					a, err := census.Run(context.Background(), census.Options{
						Bounds: atlas.Bounds{States: 2, Ops: 2, Resps: 2},
						Random: 100,
						Seed:   1,
						Limit:  3,
						Engine: engine.New(engine.Options{}),
					})
					if err != nil {
						return nil, err
					}
					if len(a.Skipped) > 0 {
						return nil, fmt.Errorf("census skipped %d types", len(a.Skipped))
					}
					rows.Add(int64(a.Types))
					classified += float64(a.Types)
				}
				return Metrics{"types": classified}, nil
			},
		},
	)
	out = append(out, serveBenchmarks()...)
	return out
}

// Quick reports the iteration budget of bm for the given mode.
func (bm Benchmark) Budget(quick bool) int {
	if quick {
		return bm.QuickIters
	}
	return bm.Iters
}

// ExperimentOptions exposes the harness budgets rcbench runs with, so
// its -list output can say what "one iteration" means.
func ExperimentOptions(quick bool) (seeds, maxN, limit int) {
	o := harnessOpts(quick)
	return o.Seeds, o.MaxN, o.Limit
}

var quickMode bool

// SetQuick switches the registry's experiment runners to the trimmed
// budgets. It must be called before Measure (rcbench does it once at
// startup; tests may toggle it).
func SetQuick(q bool) { quickMode = q }

func experimentRunner(e harness.Experiment) func(int) (Metrics, error) {
	return func(iters int) (Metrics, error) {
		for i := 0; i < iters; i++ {
			rep, err := e.Run(harnessOpts(quickMode))
			if err != nil {
				return nil, err
			}
			if !rep.Pass {
				return nil, fmt.Errorf("experiment %s failed:\n%s", e.ID, rep)
			}
		}
		return nil, nil
	}
}

// mcCheckRunner model-checks a builtin target every iteration and
// totals the executed search nodes, so the result carries a
// nodes_per_sec rate — the model checker's primary throughput metric.
// The totals are also published through the process-wide telemetry
// registry, which rcbench snapshots into the artifact's telemetry map.
func mcCheckRunner(target string, n int, opts mc.Options, wantSafe bool) func(int) (Metrics, error) {
	return func(iters int) (Metrics, error) {
		runs := obs.Default().Counter("rc_bench_mc_runs_total", "model-checker runs executed by rcbench").With()
		benchNodes := obs.Default().Counter("rc_bench_mc_nodes_total", "search nodes executed by rcbench model-checker benchmarks").With()
		nodes := 0.0
		for i := 0; i < iters; i++ {
			tgt, err := mc.TargetByName(target, n)
			if err != nil {
				return nil, err
			}
			res, err := mc.Check(context.Background(), tgt, opts)
			if err != nil {
				return nil, err
			}
			if res.Safe != wantSafe {
				return nil, fmt.Errorf("mc %s: safe=%v, want %v", target, res.Safe, wantSafe)
			}
			runs.Inc()
			benchNodes.Add(int64(res.Stats.Nodes))
			nodes += float64(res.Stats.Nodes)
		}
		return Metrics{"nodes": nodes}, nil
	}
}

// StandardFingerprintProbe builds the canonical fingerprint-benchmark
// fixture: the Figure 2 target over S_2 at a fixed crash-containing
// prefix. Both rcbench's mc/fingerprint-incremental entry and the root
// bench_test.go BenchmarkMCFingerprint measure this exact probe, so the
// `go test -bench` view and the BENCH_*.json view stay the same
// workload by construction.
func StandardFingerprintProbe() (*mc.FingerprintProbe, error) {
	tgt, err := mc.TargetByName("team-sn", 2)
	if err != nil {
		return nil, err
	}
	script := []sim.Action{
		sim.Step(0), sim.Step(1), sim.Step(0), sim.Crash(0),
		sim.Step(0), sim.Step(1), sim.Step(0),
	}
	return mc.NewFingerprintProbe(tgt, script, mc.Options{})
}

// fingerprintRunner measures ONLY the fingerprint computation: the
// prefix is executed once (outside the timed region's per-op cost at
// realistic iteration counts) and then fingerprinted iters times.
func fingerprintRunner(iters int) (Metrics, error) {
	probe, err := StandardFingerprintProbe()
	if err != nil {
		return nil, err
	}
	for i := 0; i < iters; i++ {
		_ = probe.Incremental()
	}
	return nil, nil
}

func memoryRunner(op func(*sim.Memory)) func(int) (Metrics, error) {
	return func(iters int) (Metrics, error) {
		m := sim.NewMemory()
		for i := 0; i < 32; i++ {
			m.AddRegister(fmt.Sprintf("R%02d", i), "v")
		}
		for i := 0; i < 8; i++ {
			m.AddRegister(fmt.Sprintf("S%d", i), sim.None)
		}
		for i := 0; i < iters; i++ {
			op(m)
		}
		return nil, nil
	}
}
