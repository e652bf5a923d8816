// Micro-benchmarks and ablations for the core machinery. The paper
// reports no wall-clock numbers — it is a solvability paper — so the
// benches measure this reproduction's own cost of (a) mechanically
// re-verifying its claims and (b) executing each algorithm under crash
// injection. The figure-level experiments (harness.All) and the model
// checker's fingerprint are timed by cmd/rcbench, as its harness/E* and
// mc/fingerprint-incremental entries.
package rcons_test

import (
	"context"
	"testing"

	"rcons"
	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/harness"
	"rcons/internal/history"
	"rcons/internal/rc"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
	"rcons/internal/universal"
)

// ---- Micro-benchmarks for the core machinery. ----

// BenchmarkQSet measures one Q_X computation (the checker's inner loop)
// on S_5's paper witness.
func BenchmarkQSet(b *testing.B) {
	t := types.NewSn(5)
	w := harness.SnPaperWitness(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := checker.QSet(t, w, checker.TeamA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyRecording measures a full Definition 4 verification.
func BenchmarkVerifyRecording(b *testing.B) {
	t := types.NewSn(5)
	w := harness.SnPaperWitness(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := checker.VerifyRecording(t, w)
		if err != nil || !res.OK {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkVerifyDiscerning measures a full Definition 2 verification
// (2n R-set computations) on T_6's paper witness.
func BenchmarkVerifyDiscerning(b *testing.B) {
	t := types.NewTn(6)
	w := harness.TnPaperWitness(6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := checker.VerifyDiscerning(t, w)
		if err != nil || !res.OK {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// BenchmarkSearchRecordingNegative measures the exhaustive "not
// (n-1)-recording" search for T_5 — the expensive negative certificate
// behind Proposition 19.
func BenchmarkSearchRecordingNegative(b *testing.B) {
	t := types.NewTn(5)
	for i := 0; i < b.N; i++ {
		w, err := checker.SearchRecording(t, 4)
		if err != nil {
			b.Fatal(err)
		}
		if w != nil {
			b.Fatalf("T_5 unexpectedly 4-recording: %s", w)
		}
	}
}

// BenchmarkClassifyZoo measures classifying the entire zoo at limit 5.
func BenchmarkClassifyZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, t := range types.Zoo() {
			if _, err := checker.Classify(t, 5); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Parallel classification engine (internal/engine) benchmarks. ----

// classifyBenchCases are the separating family members whose exhaustive
// searches dominate classification cost — the paper's hard instances.
func classifyBenchCases() []spec.Type {
	return []spec.Type{types.NewTn(5), types.NewSn(4)}
}

// BenchmarkClassifySequential is the single-core baseline: sequential
// checker.Classify of T_5 and S_4 at limit 5.
func BenchmarkClassifySequential(b *testing.B) {
	for _, t := range classifyBenchCases() {
		b.Run(t.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := checker.Classify(t, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassifyParallel is the sharded worker-pool counterpart
// (compare against BenchmarkClassifySequential; the ratio is the
// engine's speedup on this machine). A fresh engine per iteration keeps
// the cache cold, so this measures the parallel search itself.
func BenchmarkClassifyParallel(b *testing.B) {
	for _, t := range classifyBenchCases() {
		b.Run(t.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := engine.New(engine.Options{})
				if _, err := eng.Classify(context.Background(), t, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClassifyZooParallel is the batch counterpart of
// BenchmarkClassifyZoo: the whole zoo at limit 5 through engine.Scan,
// cache cold each iteration.
func BenchmarkClassifyZooParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.Options{})
		if _, err := eng.Scan(context.Background(), 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTeamConsensusDecide measures one crash-free Figure 2
// execution (4 processes over compare&swap).
func BenchmarkTeamConsensusDecide(b *testing.B) {
	tc, err := rc.NewTeamConsensus(types.NewCAS(), harness.CASWitness(2, 4), "b")
	if err != nil {
		b.Fatal(err)
	}
	inputs := tc.TeamInputs("a", "z")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rc.Run(tc, inputs, sim.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTeamConsensusDecideWithCrashes is the crash-injected variant
// (ablation: the cost of recovery re-runs).
func BenchmarkTeamConsensusDecideWithCrashes(b *testing.B) {
	tc, err := rc.NewTeamConsensus(types.NewCAS(), harness.CASWitness(2, 4), "b")
	if err != nil {
		b.Fatal(err)
	}
	inputs := tc.TeamInputs("a", "z")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Seed: int64(i), CrashProb: 0.3, MaxCrashes: 8}
		if _, err := rc.Run(tc, inputs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTournament measures full 4-process RC over S_4 (tournament of
// team consensus instances) — the paper's positive result end to end.
func BenchmarkTournament(b *testing.B) {
	tr, err := rc.NewTournament(types.NewSn(4), harness.SnPaperWitness(4), 4, "b")
	if err != nil {
		b.Fatal(err)
	}
	inputs := []sim.Value{"w", "x", "y", "z"}
	for i := 0; i < b.N; i++ {
		if _, err := rc.Run(tr, inputs, sim.Config{Seed: int64(i), CrashProb: 0.2, MaxCrashes: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimultaneousRC measures one Figure 4 execution with crash-all
// events (3 processes).
func BenchmarkSimultaneousRC(b *testing.B) {
	alg := rc.NewSimultaneousRC(3, "b")
	inputs := []sim.Value{"x", "y", "z"}
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Seed: int64(i), Model: sim.Simultaneous, CrashProb: 0.1, MaxCrashes: 3}
		if _, err := rc.Run(alg, inputs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniversalCAS measures the universal construction's throughput
// (appends/sec) over the default CAS-based RC instances.
func BenchmarkUniversalCAS(b *testing.B) {
	benchUniversal(b, nil)
}

// BenchmarkUniversalTournamentRC is the ablation partner: the same
// workload with per-node RC instances built from S_2 via the full
// Figure 2 + tournament stack instead of raw compare&swap.
func BenchmarkUniversalTournamentRC(b *testing.B) {
	inst, err := rc.NewTournamentInstance(types.NewSn(2), harness.SnPaperWitness(2), 2)
	if err != nil {
		b.Fatal(err)
	}
	benchUniversal(b, inst)
}

func benchUniversal(b *testing.B, inst rc.Instance) {
	b.Helper()
	const opsEach = 4
	for i := 0; i < b.N; i++ {
		u := universal.New(2, types.NewFetchAdd(1_000_000), "0", "u")
		if inst != nil {
			u.RC = inst
		}
		m := sim.NewMemory()
		u.Setup(m)
		bodies := make([]sim.Body, 2)
		for pi := 0; pi < 2; pi++ {
			pi := pi
			bodies[pi] = func(p *sim.Proc) sim.Value {
				last := sim.Value("")
				for k := 0; k < opsEach; k++ {
					last = sim.Value(u.Invoke(p, pi, k, "add(1)"))
				}
				return last
			}
		}
		cfg := sim.Config{Seed: int64(i), CrashProb: 0.1, MaxCrashes: 4}
		if _, err := sim.NewRunner(m, bodies, cfg).Run(); err != nil {
			b.Fatal(err)
		}
		if err := u.VerifyList(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*opsEach), "appends/op")
}

// BenchmarkLinearizabilityCheck measures the history checker on a
// 12-operation crash-recovered queue history.
func BenchmarkLinearizabilityCheck(b *testing.B) {
	u := universal.New(3, types.NewQueue(10), "", "u")
	u.Rec = history.NewRecorder()
	m := sim.NewMemory()
	u.Setup(m)
	ops := [][]spec.Op{
		{"enq(0)", "deq", "enq(0)", "deq"},
		{"enq(1)", "deq", "enq(1)", "deq"},
		{"deq", "enq(1)", "deq", "enq(0)"},
	}
	bodies := make([]sim.Body, 3)
	for pi := range bodies {
		pi := pi
		bodies[pi] = func(p *sim.Proc) sim.Value {
			for k, op := range ops[pi] {
				u.Invoke(p, pi, k, op)
			}
			return ""
		}
	}
	if _, err := sim.NewRunner(m, bodies, sim.Config{Seed: 7, CrashProb: 0.2, MaxCrashes: 6}).Run(); err != nil {
		b.Fatal(err)
	}
	hist := u.Rec.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := history.CheckLinearizable(types.NewQueue(10), "", hist)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkSimulatorStep measures raw simulator step throughput.
func BenchmarkSimulatorStep(b *testing.B) {
	const stepsPerRun = 1000
	for i := 0; i < b.N; i++ {
		m := sim.NewMemory()
		m.AddRegister("R", sim.None)
		body := func(p *sim.Proc) sim.Value {
			for s := 0; s < stepsPerRun; s++ {
				p.Read("R")
			}
			return "done"
		}
		if _, err := sim.NewRunner(m, []sim.Body{body}, sim.Config{Seed: 1}).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stepsPerRun, "steps/op")
}

// BenchmarkPublicAPI exercises the facade end to end: classify a family
// member and solve RC with it at its level.
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := rcons.TypeByName("S_3")
		if err != nil {
			b.Fatal(err)
		}
		c, err := rcons.Classify(t, 5)
		if err != nil {
			b.Fatal(err)
		}
		if c.RconsLo != 3 || c.RconsHi != 3 {
			b.Fatalf("rcons(S_3) band = [%d,%d], want [3,3]", c.RconsLo, c.RconsHi)
		}
		tr, err := rcons.NewTournament(t, harness.SnPaperWitness(3), 3, "b")
		if err != nil {
			b.Fatal(err)
		}
		inputs := []rcons.Value{"x", "y", "z"}
		cfg := rcons.Config{Seed: int64(i), CrashProb: 0.2, MaxCrashes: 6}
		if _, err := rcons.RunRC(tr, inputs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
