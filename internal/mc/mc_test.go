package mc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rcons/internal/compile"
	"rcons/internal/rc"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
	"rcons/internal/universal"
)

func mustTarget(t testing.TB, name string, n int) Target {
	t.Helper()
	tgt, err := TargetByName(name, n)
	if err != nil {
		t.Fatalf("TargetByName(%q, %d): %v", name, n, err)
	}
	return tgt
}

func check(t *testing.T, tgt Target, opts Options) *Result {
	t.Helper()
	res, err := Check(context.Background(), tgt, opts)
	if err != nil {
		t.Fatalf("Check(%s): %v", tgt.Name, err)
	}
	return res
}

// TestExhaustiveSafeProtocols is the acceptance check: the paper's
// protocols must survive the FULL bounded adversary — every interleaving
// and crash placement within the depth/crash budget — for n = 2, and
// Figure 2 over compare&swap also for n = 3 (|A| = 1, |B| = 2: the
// non-yield branch).
func TestExhaustiveSafeProtocols(t *testing.T) {
	cases := []struct {
		name   string
		target string
		n      int
		opts   Options
	}{
		{"cas", "cas", 2, Options{MaxDepth: 10, CrashBudget: 2}},
		{"team-sn", "team-sn", 2, Options{MaxDepth: 10, CrashBudget: 1}},
		{"team-cas", "team-cas", 2, Options{MaxDepth: 10, CrashBudget: 1}},
		{"team-cas-n3", "team-cas", 3, Options{MaxDepth: 10, CrashBudget: 1}},
		{"simultaneous", "simultaneous", 2, Options{MaxDepth: 8, CrashBudget: 1}},
		{"tournament", "tournament", 2, Options{MaxDepth: 8, CrashBudget: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := check(t, mustTarget(t, c.target, c.n), c.opts)
			if !res.Safe {
				t.Fatalf("%s reported unsafe:\n%s", c.name, res.CE)
			}
			if !res.Exhaustive {
				t.Fatalf("%s fell back to swarm (nodes=%d)", c.name, res.Stats.Nodes)
			}
			if res.Stats.Completions == 0 {
				t.Fatalf("%s checked no full executions", c.name)
			}
			t.Logf("%s: nodes=%d pruned=%d completions=%d rounds=%d complete=%v",
				c.name, res.Stats.Nodes, res.Stats.Pruned, res.Stats.Completions,
				res.Stats.Rounds, res.Complete)
		})
	}
}

// TestCASCompletes shows the checker CLOSES small state spaces: CAS
// consensus for n=2 has so few configurations that the search terminates
// before the depth bound, covering every schedule within the crash
// budget outright.
func TestCASCompletes(t *testing.T) {
	res := check(t, mustTarget(t, "cas", 2), Options{MaxDepth: 16, CrashBudget: 1})
	if !res.Safe || !res.Exhaustive {
		t.Fatalf("cas n=2 not verified: %+v", res)
	}
	if !res.Complete {
		t.Fatalf("cas n=2 should close before depth 16 (boundary hits %d)", res.Stats.BoundaryHits)
	}
}

// TestUniversalConstruction model-checks RUniversal's list invariant for
// n=2 under independent crashes at a modest depth.
func TestUniversalConstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("universal bodies are long; skip in -short")
	}
	res := check(t, mustTarget(t, "universal", 2), Options{MaxDepth: 7, MinDepth: 7, CrashBudget: 1})
	if !res.Safe || !res.Exhaustive {
		t.Fatalf("universal n=2 not verified: %+v", res)
	}
}

// TestUniversalDeepPrefixNoFalsePositive is the regression test for the
// quiescent-only list check: a schedule prefix halted mid-append (next
// pointer decided, winner node's seq/state/resp not yet written) shows a
// half-built list, which must NOT be reported as a violation. Depth 20
// crash-free reaches such prefixes; the old prefix-time VerifyList call
// flagged them.
func TestUniversalDeepPrefixNoFalsePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("deep universal search; skip in -short")
	}
	res := check(t, mustTarget(t, "universal", 2), Options{
		MaxDepth: 20, MinDepth: 20, CrashBudget: 0,
	})
	if !res.Safe {
		t.Fatalf("false violation on a correct universal construction:\n%s", res.CE)
	}
	if !res.Exhaustive {
		t.Fatalf("search fell back to swarm (nodes=%d)", res.Stats.Nodes)
	}
}

// TestUniversalFetchAddDistinctResponses model-checks the universal
// construction over fetch&add, whose responses — unlike the builtin
// universal target's register writes — depend on the linearization
// order: two processes each add 1, and once both have decided the list
// must replay correctly, hold both operations, and have handed them
// distinct responses.
func TestUniversalFetchAddDistinctResponses(t *testing.T) {
	u := universal.New(2, types.NewFetchAdd(100), "0", "u")
	tgt := Target{
		Name: "universal[fetch&add]",
		Factory: func() (*sim.Memory, []sim.Body, []sim.Value) {
			m := sim.NewMemory()
			u.Setup(m)
			bodies := make([]sim.Body, 2)
			for i := range bodies {
				bodies[i] = func(p *sim.Proc) sim.Value { return sim.Value(u.Invoke(p, p.ID(), 0, "add(1)")) }
			}
			return m, bodies, distinctInputs(2)
		},
		Check: func(_ []sim.Value, m *sim.Memory, out *sim.Outcome) error {
			for _, d := range out.Decided {
				if !d {
					return nil // mid-append prefix: the list may be half-built
				}
			}
			if err := u.VerifyList(m); err != nil {
				return err
			}
			list, err := u.ListOrder(m)
			if err != nil {
				return err
			}
			if len(list) != 2 {
				return fmt.Errorf("list holds %d operations, want 2", len(list))
			}
			if out.Decisions[0] == out.Decisions[1] {
				return fmt.Errorf("duplicate fetch&add responses %v", out.Decisions)
			}
			return nil
		},
	}
	res := check(t, tgt, Options{MaxDepth: 7, CrashBudget: 1})
	if !res.Safe || !res.Exhaustive {
		t.Fatalf("universal fetch&add not verified (exhaustive=%v, nodes=%d):\n%s", res.Exhaustive, res.Stats.Nodes, res.CE)
	}
}

// TestOpenQuestionProbeDeeper pushes the paper's §5 open question (is
// 2-recording necessary for 2-process RC?) harder than E11 does: Figure 4
// over non-recoverable test&set consensus, independent crashes, deeper
// schedules and two crashes. A violation here would answer the question
// negatively for this algorithm; none has been found.
func TestOpenQuestionProbeDeeper(t *testing.T) {
	if testing.Short() {
		t.Skip("deep probe; skip in -short")
	}
	alg := rc.NewSimultaneousRC(2, "probe")
	alg.Sub = rc.TASInstance{}
	tgt, err := FromAlgorithm(alg, []sim.Value{"x", "y"}, sim.Independent)
	if err != nil {
		t.Fatal(err)
	}
	res := check(t, tgt, Options{MaxDepth: 12, CrashBudget: 2})
	if !res.Safe {
		t.Fatalf("open question answered?!\n%s", res.CE)
	}
	if !res.Exhaustive {
		t.Fatalf("search fell back to swarm (nodes=%d)", res.Stats.Nodes)
	}
	t.Logf("probe: nodes=%d pruned=%d completions=%d without violation",
		res.Stats.Nodes, res.Stats.Pruned, res.Stats.Completions)
}

// TestBrokenProtocolCounterexample is the second acceptance check: the
// deliberately broken Figure 2 variant must produce a minimal,
// replayable counterexample, and replaying it through a raw sim runner
// must reproduce the same violation.
func TestBrokenProtocolCounterexample(t *testing.T) {
	tgt := mustTarget(t, "unsafe-noyield", 2)
	res := check(t, tgt, Options{MaxDepth: 12, CrashBudget: 1})
	if res.Safe || res.CE == nil {
		t.Fatalf("broken protocol reported safe: %+v", res)
	}
	if !strings.Contains(res.CE.Violation, "agreement") {
		t.Fatalf("expected an agreement violation, got: %s", res.CE.Violation)
	}

	// Replayable: an independent sim execution of the schedule, built
	// from a fresh instance, reproduces the identical violation.
	inputs, m, out, err := Replay(tgt, res.CE.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed to execute: %v", err)
	}
	cerr := tgt.Check(inputs, m, out)
	if cerr == nil {
		t.Fatal("replay of the counterexample did not violate")
	}
	if cerr.Error() != res.CE.Violation {
		t.Fatalf("replay violation %q differs from reported %q", cerr, res.CE.Violation)
	}

	// Minimal: removing ANY single action must make the violation
	// disappear (or the script inadmissible).
	for i := range res.CE.Schedule {
		cand := append(append([]sim.Action(nil), res.CE.Schedule[:i]...), res.CE.Schedule[i+1:]...)
		if scheduleViolates(tgt, cand, 0) {
			t.Fatalf("counterexample not minimal: dropping action %d (%s) still violates\nfull: %s",
				i, res.CE.Schedule[i], sim.FormatScript(res.CE.Schedule))
		}
	}
	t.Logf("counterexample: %s", sim.FormatScript(res.CE.Schedule))
}

// TestYieldAlwaysCounterexample rediscovers the paper's second §3.1 bad
// scenario: yielding with |B| > 1 breaks agreement.
func TestYieldAlwaysCounterexample(t *testing.T) {
	if testing.Short() {
		t.Skip("n=3 search; skip in -short")
	}
	res := check(t, mustTarget(t, "unsafe-yieldalways", 3), Options{MaxDepth: 10, CrashBudget: 1})
	if res.Safe || res.CE == nil {
		t.Fatalf("yield-always variant reported safe: %+v", res)
	}
	if !strings.Contains(res.CE.Violation, "agreement") {
		t.Fatalf("expected an agreement violation, got: %s", res.CE.Violation)
	}
}

// TestSwarmFallback forces the node budget under the exhaustive
// frontier and checks the checker degrades to deterministic swarm
// fuzzing — and that the swarm still finds the broken protocol's bug.
func TestSwarmFallback(t *testing.T) {
	// Safe target: swarm finds nothing, result is Safe but not Exhaustive.
	res := check(t, mustTarget(t, "team-sn", 2), Options{
		MaxDepth: 10, CrashBudget: 1, NodeBudget: 40, SwarmSchedules: 64,
	})
	if res.Exhaustive {
		t.Fatalf("node budget 40 should have forced swarm fallback (nodes=%d)", res.Stats.Nodes)
	}
	if !res.Safe {
		t.Fatalf("swarm found a spurious violation:\n%s", res.CE)
	}
	if res.Stats.SwarmRuns == 0 {
		t.Fatal("swarm fallback executed no schedules")
	}

	// Broken target: the swarm fleet must rediscover the violation.
	resBad := check(t, mustTarget(t, "unsafe-noyield", 2), Options{
		MaxDepth: 10, CrashBudget: 1, NodeBudget: 10, SwarmSchedules: 512,
	})
	if resBad.Exhaustive {
		t.Fatal("node budget 10 should have forced swarm fallback")
	}
	if resBad.Safe || resBad.CE == nil {
		t.Fatal("swarm failed to find the known agreement violation")
	}
	if !strings.Contains(resBad.CE.Violation, "agreement") {
		t.Fatalf("expected an agreement violation, got: %s", resBad.CE.Violation)
	}
}

// TestDeterministicVerdict runs the same broken-protocol search twice
// with different worker counts and expects the identical counterexample
// — the canonical-order guarantee of the parallel search.
func TestDeterministicVerdict(t *testing.T) {
	tgt := mustTarget(t, "unsafe-noyield", 2)
	opts1 := Options{MaxDepth: 12, CrashBudget: 1, Workers: 1}
	optsN := Options{MaxDepth: 12, CrashBudget: 1, Workers: 8}
	a := check(t, tgt, opts1)
	b := check(t, tgt, optsN)
	if a.Safe || b.Safe {
		t.Fatal("broken protocol reported safe")
	}
	if !reflect.DeepEqual(a.CE.Schedule, b.CE.Schedule) {
		t.Fatalf("verdict depends on worker count:\n1 worker:  %s\n8 workers: %s",
			sim.FormatScript(a.CE.Schedule), sim.FormatScript(b.CE.Schedule))
	}
	if a.CE.Violation != b.CE.Violation {
		t.Fatalf("violation message depends on worker count: %q vs %q", a.CE.Violation, b.CE.Violation)
	}
}

// TestSwarmDeterministicAcrossWorkers is TestDeterministicVerdict for the
// swarm fallback: a node budget of 10 forces it on the broken protocol,
// and the counterexample must not depend on the worker count.
func TestSwarmDeterministicAcrossWorkers(t *testing.T) {
	tgt := mustTarget(t, "unsafe-noyield", 2)
	var first *Result
	for _, workers := range []int{1, 2, 8} {
		res := check(t, tgt, Options{MaxDepth: 12, CrashBudget: 1, NodeBudget: 10, Workers: workers})
		if res.Exhaustive || res.Stats.SwarmRuns == 0 {
			t.Fatalf("workers=%d: node budget 10 did not force the swarm fallback (exhaustive=%v, swarm runs %d)",
				workers, res.Exhaustive, res.Stats.SwarmRuns)
		}
		if res.Safe || res.CE == nil {
			t.Fatalf("workers=%d: swarm missed the known agreement violation", workers)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(res.CE.Schedule, first.CE.Schedule) {
			t.Fatalf("swarm counterexample depends on worker count:\n1 worker:  %s\n%d workers: %s",
				sim.FormatScript(first.CE.Schedule), workers, sim.FormatScript(res.CE.Schedule))
		}
		if res.CE.Violation != first.CE.Violation {
			t.Fatalf("swarm violation depends on worker count: %q vs %q (workers=%d)",
				first.CE.Violation, res.CE.Violation, workers)
		}
	}
}

// TestNodeBudgetBoundsNodes checks that Stats.Nodes counts only the
// prefixes the search executed: a node the budget refuses is not
// counted, at any worker count, even when workers race past the budget
// together.
func TestNodeBudgetBoundsNodes(t *testing.T) {
	const budget = 10
	tgt := mustTarget(t, "unsafe-noyield", 2)
	for _, workers := range []int{1, 2, 8} {
		for range 5 {
			res := check(t, tgt, Options{MaxDepth: 12, CrashBudget: 1, NodeBudget: budget, Workers: workers})
			if res.Exhaustive || res.Stats.SwarmRuns == 0 {
				t.Fatalf("workers=%d: node budget %d did not force the swarm fallback (exhaustive=%v, swarm runs %d)",
					workers, budget, res.Exhaustive, res.Stats.SwarmRuns)
			}
			if res.Stats.Nodes > budget {
				t.Fatalf("workers=%d: %d nodes counted under a node budget of %d", workers, res.Stats.Nodes, budget)
			}
		}
	}
}

// TestCASBuiltinsStayInCompiledTable checks that every operation the
// compare&swap builtins apply is in compare&swap's compiled alphabet for
// their process count, so no step of theirs falls back from the dense
// table to the interpreted Apply.
func TestCASBuiltinsStayInCompiledTable(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{{"cas", 2}, {"team-cas", 2}, {"unsafe-yieldalways", 3}} {
		tgt := mustTarget(t, c.name, c.n)
		table, err := compile.Compile(types.NewCAS(), c.n)
		if err != nil {
			t.Fatal(err)
		}
		applied := map[spec.Op]bool{}
		for seed := range 64 {
			m, bodies, _ := tgt.Factory()
			r := sim.NewRunner(m, bodies, sim.Config{
				Seed: int64(seed), Model: tgt.Model, CrashProb: 0.25, MaxCrashes: 2, DecideRequiresStep: true,
			})
			r.RecordTrace()
			out, err := r.Run()
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			for _, e := range out.Trace {
				if e.Kind == sim.TraceApply {
					op, _, _ := strings.Cut(e.Detail, "->")
					applied[spec.Op(op)] = true
				}
			}
		}
		if len(applied) == 0 {
			t.Fatalf("%s: no operation applied", c.name)
		}
		for op := range applied {
			if _, ok := table.OpIndex(op); !ok {
				t.Errorf("%s applies %s, which is not in the compiled alphabet %v", c.name, op, table.Alphabet())
			}
		}
	}
}

// TestPruningSoundness cross-validates fingerprint pruning two ways:
// against clock-sensitive (per-event-timestamped, nearly path-unique)
// fingerprints that defeat most pruning, and against enumerate, the
// pruning-free sequential oracle — neither may disagree with the pruned
// verdict.
func TestPruningSoundness(t *testing.T) {
	tgt := mustTarget(t, "unsafe-noyield", 2)
	opts := Options{MaxDepth: 12, CrashBudget: 1}
	pruned := check(t, tgt, opts)

	noPrune := tgt
	noPrune.ClockSensitive = true // timestamped events ⇒ almost no pruning
	full := check(t, noPrune, opts)

	if pruned.Safe != full.Safe {
		t.Fatalf("pruning changed the verdict: pruned safe=%v, full safe=%v", pruned.Safe, full.Safe)
	}
	if !reflect.DeepEqual(pruned.CE.Schedule, full.CE.Schedule) {
		t.Fatalf("pruning changed the counterexample:\npruned: %s\nfull:   %s",
			sim.FormatScript(pruned.CE.Schedule), sim.FormatScript(full.CE.Schedule))
	}

	// On a safe target the whole space is explored, so the finer
	// clock-sensitive fingerprints must expand the node count while
	// leaving the verdict untouched.
	safe := mustTarget(t, "team-sn", 2)
	safeNoPrune := safe
	safeNoPrune.ClockSensitive = true
	safeOpts := Options{MaxDepth: 8, MinDepth: 8, CrashBudget: 1}
	a := check(t, safe, safeOpts)
	b := check(t, safeNoPrune, safeOpts)
	if !a.Safe || !b.Safe {
		t.Fatalf("team-sn reported unsafe (pruned safe=%v, full safe=%v)", a.Safe, b.Safe)
	}
	if b.Stats.Nodes <= a.Stats.Nodes {
		t.Fatalf("expected clock-sensitive fingerprints to explore more nodes (%d vs %d)",
			b.Stats.Nodes, a.Stats.Nodes)
	}

	// Independent oracle: enumerate walks every prefix without pruning;
	// its verdict must agree on both a safe and a broken target.
	for _, c := range []struct {
		target  string
		wantBug bool
	}{{"team-sn", false}, {"unsafe-noyield", true}} {
		ex := mustTarget(t, c.target, 2)
		prefixes, err := enumerate(ex, 10, 1)
		oracleBug := err != nil
		mcRes := check(t, ex, Options{MaxDepth: 10, CrashBudget: 1})
		if oracleBug != !mcRes.Safe {
			t.Fatalf("%s: pruning-free verdict (bug=%v: %v) disagrees with mc (safe=%v)",
				c.target, oracleBug, err, mcRes.Safe)
		}
		if oracleBug != c.wantBug {
			t.Fatalf("%s: pruning-free oracle itself unexpected (bug=%v, want %v): %v", c.target, oracleBug, c.wantBug, err)
		}
		t.Logf("%s: oracle executed %d prefixes, mc %d nodes", c.target, prefixes, mcRes.Stats.Nodes)
	}
}

// TestContextCancellation checks the search honours its context.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Check(ctx, mustTarget(t, "team-sn", 2), Options{MaxDepth: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestTargetByNameErrors covers the registry's error paths.
func TestTargetByNameErrors(t *testing.T) {
	if _, err := TargetByName("no-such-protocol", 2); err == nil {
		t.Fatal("unknown target accepted")
	}
	if _, err := TargetByName("cas", 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := TargetByName("unsafe-yieldalways", 2); err == nil {
		t.Fatal("unsafe-yieldalways with n=2 accepted (needs |B| > 1)")
	}
	for _, name := range Targets() {
		if TargetDoc(name) == "" {
			t.Fatalf("target %q has no doc string", name)
		}
	}
}

// TestCheckValidation covers Check's own argument validation.
func TestCheckValidation(t *testing.T) {
	if _, err := Check(context.Background(), Target{}, Options{}); err == nil {
		t.Fatal("empty target accepted")
	}
}

// TestFromAlgorithmInputMismatch covers the adapter's validation.
func TestFromAlgorithmInputMismatch(t *testing.T) {
	if _, err := FromAlgorithm(rc.NewCASConsensus(2, "x"), []sim.Value{"only-one"}, sim.Independent); err == nil {
		t.Fatal("input arity mismatch accepted")
	}
}
