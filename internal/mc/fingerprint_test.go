package mc

import (
	"reflect"
	"testing"

	"rcons/internal/sim"
)

// e13Cases mirrors the depth/budget table harness.MCProtocols (E13) runs
// the builtin registry at; the parity tests below re-check every builtin
// target at exactly these bounds under both fingerprint pipelines.
var e13Cases = []struct {
	target string
	n      int
	opts   Options
}{
	{"cas", 2, Options{MaxDepth: 10, CrashBudget: 2}},
	{"team-sn", 2, Options{MaxDepth: 9, CrashBudget: 1}},
	{"team-cas", 2, Options{MaxDepth: 9, CrashBudget: 1}},
	{"tournament", 2, Options{MaxDepth: 8, CrashBudget: 1}},
	{"simultaneous", 2, Options{MaxDepth: 8, CrashBudget: 1}},
	{"universal", 2, Options{MaxDepth: 6, MinDepth: 6, CrashBudget: 1}},
	{"unsafe-noyield", 2, Options{MaxDepth: 12, CrashBudget: 1}},
	{"unsafe-yieldalways", 3, Options{MaxDepth: 10, CrashBudget: 1}},
}

// TestVerdictParityAllTargets is the fingerprint pipeline's acceptance
// gate: for EVERY builtin target, at the depths harness E13 uses, a
// search pruning with the incremental fingerprint and one pruning with
// the textual reference pipeline (legacyFingerprint) must agree on
// everything the package guarantees to be deterministic. At default
// workers that is the verdict, exhaustiveness and completeness, the
// minimized counterexample schedule and the violation text — plus the
// node and pruning counts when the run is safe and exhaustive, because
// then the whole space is visited. On a violating target the parallel
// root search stops at a scheduling-dependent point, so the counts are
// compared only at Workers: 1, where they are exact for every target.
func TestVerdictParityAllTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry parity at E13 depths; skip in -short")
	}
	covered := map[string]bool{}
	for _, c := range e13Cases {
		covered[c.target] = true
	}
	for _, name := range Targets() {
		if !covered[name] {
			t.Fatalf("builtin target %q missing from the E13 parity table", name)
		}
	}

	for _, c := range e13Cases {
		t.Run(c.target, func(t *testing.T) {
			tgt := mustTarget(t, c.target, c.n)
			inc := check(t, tgt, c.opts)
			leg := check(t, tgt, withLegacyPipeline(c.opts))

			if inc.Safe != leg.Safe || inc.Exhaustive != leg.Exhaustive || inc.Complete != leg.Complete {
				t.Fatalf("verdict differs: incremental (safe=%v exh=%v comp=%v) vs legacy (safe=%v exh=%v comp=%v)",
					inc.Safe, inc.Exhaustive, inc.Complete, leg.Safe, leg.Exhaustive, leg.Complete)
			}
			if (inc.CE == nil) != (leg.CE == nil) {
				t.Fatalf("counterexample presence differs: %v vs %v", inc.CE, leg.CE)
			}
			if inc.CE != nil {
				if !reflect.DeepEqual(inc.CE.Schedule, leg.CE.Schedule) {
					t.Fatalf("counterexample differs:\nincremental: %s\nlegacy:      %s",
						sim.FormatScript(inc.CE.Schedule), sim.FormatScript(leg.CE.Schedule))
				}
				if inc.CE.Violation != leg.CE.Violation {
					t.Fatalf("violation text differs: %q vs %q", inc.CE.Violation, leg.CE.Violation)
				}
			}
			if inc.Safe && inc.Exhaustive {
				sameShape(t, "default workers", inc, leg)
			}

			one := c.opts
			one.Workers = 1
			inc1 := check(t, tgt, one)
			leg1 := check(t, tgt, withLegacyPipeline(one))
			if inc1.Safe != inc.Safe {
				t.Fatalf("verdict depends on worker count: safe=%v at 1 worker, %v at default", inc1.Safe, inc.Safe)
			}
			sameShape(t, "1 worker", inc1, leg1)
			t.Logf("%s: nodes=%d pruned=%d safe=%v at 1 worker (both pipelines)",
				c.target, inc1.Stats.Nodes, inc1.Stats.Pruned, inc1.Safe)
		})
	}
}

// sameShape fails unless two runs visited and pruned the same number of
// nodes.
func sameShape(t *testing.T, label string, inc, leg *Result) {
	t.Helper()
	if inc.Stats.Nodes != leg.Stats.Nodes || inc.Stats.Pruned != leg.Stats.Pruned {
		t.Fatalf("%s: search shape differs: incremental nodes=%d pruned=%d, legacy nodes=%d pruned=%d",
			label, inc.Stats.Nodes, inc.Stats.Pruned, leg.Stats.Nodes, leg.Stats.Pruned)
	}
}

// TestFingerprintProbeParity spot-checks the probe helper itself: on a
// handful of concrete prefixes the two pipelines must agree on
// equality/inequality of fingerprints pairwise, and re-probing the same
// prefix must reproduce the same incremental fingerprint (digest
// determinism across executions).
func TestFingerprintProbeParity(t *testing.T) {
	tgt := mustTarget(t, "team-sn", 2)
	prefixes := [][]sim.Action{
		{},
		{sim.Step(0)},
		{sim.Step(1)},
		{sim.Step(0), sim.Step(1)},
		{sim.Step(0), sim.Crash(0)},
		{sim.Step(0), sim.Crash(0), sim.Step(0)},
		{sim.Step(0), sim.Step(0), sim.Step(1)},
	}
	probes := make([]*fingerprintProbe, len(prefixes))
	for i, p := range prefixes {
		probe, err := newFingerprintProbe(tgt, p, Options{})
		if err != nil {
			t.Fatalf("prefix %s: %v", sim.FormatScript(p), err)
		}
		probes[i] = probe
	}
	for i := range probes {
		for j := range probes {
			incEq := probes[i].incremental() == probes[j].incremental()
			legEq := probes[i].legacy() == probes[j].legacy()
			if incEq != legEq {
				t.Errorf("parity broken between %s and %s: incremental equal=%v, legacy equal=%v",
					sim.FormatScript(prefixes[i]), sim.FormatScript(prefixes[j]), incEq, legEq)
			}
		}
	}
	for i, p := range prefixes {
		again, err := newFingerprintProbe(tgt, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.incremental() != probes[i].incremental() {
			t.Errorf("incremental fingerprint of %s not reproducible across executions",
				sim.FormatScript(p))
		}
	}
}

// TestClockSensitiveFingerprintDistinguishesPositions checks the
// clock-mixed digest path: two prefixes whose per-process observations
// are identical but globally shifted in time must fingerprint equal for
// a clock-blind target and DIFFERENT for a clock-sensitive one, under
// both pipelines.
func TestClockSensitiveFingerprintDistinguishesPositions(t *testing.T) {
	base := mustTarget(t, "cas", 3)
	clocked := base
	clocked.ClockSensitive = true

	// p2's single step happens at global position 0 vs position 2; p0/p1
	// observe the same CAS responses either way (p2 only reads its own
	// input register first).
	a := []sim.Action{sim.Step(2), sim.Step(0), sim.Step(1)}
	b := []sim.Action{sim.Step(0), sim.Step(1), sim.Step(2)}

	fp := func(tgt Target, script []sim.Action) (Fingerprint, Fingerprint) {
		p, err := newFingerprintProbe(tgt, script, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p.incremental(), p.legacy()
	}
	for _, tc := range []struct {
		name string
		tgt  Target
	}{{"clock-blind", base}, {"clock-sensitive", clocked}} {
		incA, legA := fp(tc.tgt, a)
		incB, legB := fp(tc.tgt, b)
		if (incA == incB) != (legA == legB) {
			t.Fatalf("%s: pipelines disagree (incremental equal=%v, legacy equal=%v)",
				tc.name, incA == incB, legA == legB)
		}
		if tc.name == "clock-sensitive" && incA == incB {
			t.Fatal("clock-sensitive fingerprints ignore global positions")
		}
	}
}
