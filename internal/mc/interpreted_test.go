package mc

import (
	"context"
	"strings"
	"testing"

	"rcons/internal/checker"
	"rcons/internal/rc"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// The builtin targets run over compiled specs. The tests in this file
// build their protocols over the interpreted types instead, through
// FromAlgorithm, so the adapter and the interpreted object path are
// checked by the same bounded adversary.

// teamTarget wraps Figure 2, or the variant v of it, over the
// interpreted type typ and witness w as an independent-crash target.
func teamTarget(t *testing.T, typ spec.Type, w checker.Witness, v rc.Variant) Target {
	t.Helper()
	tc, err := rc.NewTeamConsensus(typ, w, "x")
	if err != nil {
		t.Fatal(err)
	}
	tc = rc.NewTeamConsensusVariant(tc, v)
	tgt, err := FromAlgorithm(tc, tc.TeamInputs("vA", "vB"), sim.Independent)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

// TestModelCheckFigure2OnS2 exhaustively verifies Figure 2 on the S_2
// witness for every interleaving and every single-crash placement
// within depth 10: the Theorem 8 check over the interpreted S_2 spec.
func TestModelCheckFigure2OnS2(t *testing.T) {
	res := check(t, teamTarget(t, types.NewSn(2), snWitness(2), rc.VariantPaper), Options{MaxDepth: 10, CrashBudget: 1})
	if !res.Safe {
		t.Fatalf("violation found:\n%s", res.CE)
	}
	if !res.Exhaustive {
		t.Fatalf("search fell back to swarm (nodes=%d)", res.Stats.Nodes)
	}
	if res.Stats.Completions == 0 || res.Stats.Nodes < 100 {
		t.Fatalf("exploration too shallow: %+v", res.Stats)
	}
}

// TestModelCheckFindsKnownBug demands that the search FINDS the
// agreement violation of the broken VariantNoYield algorithm (the
// paper's second §3.1 scenario) at depth 10, and that the minimized
// schedule contains a crash, which that bug needs.
func TestModelCheckFindsKnownBug(t *testing.T) {
	res := check(t, teamTarget(t, types.NewSn(2), snWitness(2), rc.VariantNoYield), Options{MaxDepth: 10, CrashBudget: 1})
	if res.Safe || res.CE == nil {
		t.Fatalf("search missed the known §3.1 bug: %+v", res.Stats)
	}
	script := sim.FormatScript(res.CE.Schedule)
	if !strings.Contains(script, "c0") && !strings.Contains(script, "c1") {
		t.Fatalf("violation schedule %q contains no crash; the bug needs one", script)
	}
}

// TestModelCheckFindsYieldAlwaysBug does the same for VariantYieldAlways
// (the first §3.1 scenario) on compare&swap with 3 processes, which
// breaks agreement with no crash at all.
func TestModelCheckFindsYieldAlwaysBug(t *testing.T) {
	res := check(t, teamTarget(t, types.NewCAS(), casWitness(1, 3), rc.VariantYieldAlways), Options{MaxDepth: 9, CrashBudget: 0})
	if res.Safe || res.CE == nil {
		t.Fatalf("search missed the yield-always bug: %+v", res.Stats)
	}
	if !strings.Contains(res.CE.Violation, "agreement") {
		t.Fatalf("expected an agreement violation, got: %s", res.CE.Violation)
	}
}

// TestSimultaneousExploration exercises crash-all branching on the
// Figure 4 algorithm for 2 processes: the run is safe, and granting one
// simultaneous crash must widen the search beyond the crash-free one.
func TestSimultaneousExploration(t *testing.T) {
	tgt, err := FromAlgorithm(rc.NewSimultaneousRC(2, "x"), []sim.Value{"x", "y"}, sim.Simultaneous)
	if err != nil {
		t.Fatal(err)
	}
	crashy := check(t, tgt, Options{MaxDepth: 8, CrashBudget: 1})
	if !crashy.Safe || !crashy.Exhaustive {
		t.Fatalf("simultaneous RC not verified (exhaustive=%v):\n%s", crashy.Exhaustive, crashy.CE)
	}
	calm := check(t, tgt, Options{MaxDepth: 8, CrashBudget: 0})
	if crashy.Stats.Nodes <= calm.Stats.Nodes {
		t.Fatalf("no crash-all placements explored: %d nodes with a crash, %d without",
			crashy.Stats.Nodes, calm.Stats.Nodes)
	}
}

// TestExhaustiveRequiresChecker: a target that can be built but has no
// Check function must be rejected rather than explored unchecked.
func TestExhaustiveRequiresChecker(t *testing.T) {
	tgt := mustTarget(t, "team-sn", 2)
	tgt.Check = nil
	if _, err := Check(context.Background(), tgt, Options{MaxDepth: 4}); err == nil {
		t.Fatal("nil checker accepted")
	}
}
