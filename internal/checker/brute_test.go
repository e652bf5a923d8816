package checker

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rcons/internal/atlas"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// newRandomType draws a random deterministic readable type from the
// shared generator in internal/atlas — the SAME sampler the census
// pipeline surveys, so the brute-force differential tests and the
// production sampling can never drift apart. Random types are the acid
// test for the checker: the counts-abstracted engines must agree with
// the brute-force definitional enumeration on all of them, and the
// paper's implications (Observations 5/6, Theorem 16) must hold on
// every witness found. The response alphabet is fixed at 3, matching
// the generator's historic distribution here.
func newRandomType(rng *rand.Rand, states, ops int) *atlas.Table {
	return atlas.Random(rng, states, ops, 3)
}

// randomWitness draws a witness for t with n processes.
func randomWitness(rng *rand.Rand, t spec.Type, n int) Witness {
	states := t.InitialStates()
	ops := t.Ops()
	w := Witness{Q0: states[rng.Intn(len(states))]}
	// Ensure both teams non-empty: process 0 → A, process 1 → B.
	for i := 0; i < n; i++ {
		team := TeamA
		switch {
		case i == 1:
			team = TeamB
		case i > 1 && rng.Intn(2) == 1:
			team = TeamB
		}
		w.Teams = append(w.Teams, team)
		w.Ops = append(w.Ops, ops[rng.Intn(len(ops))])
	}
	return w
}

func setsEqualStates(a, b map[spec.State]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func setsEqualPairs(a, b map[RPair]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestQSetMatchesBruteOnRandomTypes cross-validates the memoized Q
// engine against the brute-force definitional enumeration.
func TestQSetMatchesBruteOnRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		typ := newRandomType(rng, 2+rng.Intn(4), 1+rng.Intn(3))
		n := 2 + rng.Intn(4)
		w := randomWitness(rng, typ, n)
		for _, team := range []int{TeamA, TeamB} {
			fast, err := QSet(typ, w, team)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := QSetBrute(typ, w, team)
			if err != nil {
				t.Fatal(err)
			}
			if !setsEqualStates(fast, brute) {
				t.Fatalf("trial %d: QSet mismatch for %s team %d\nwitness %s\nfast  %v\nbrute %v",
					trial, typ.Name(), team, w, fast, brute)
			}
		}
	}
}

// TestRSetMatchesBruteOnRandomTypes cross-validates the R engine.
func TestRSetMatchesBruteOnRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		typ := newRandomType(rng, 2+rng.Intn(3), 1+rng.Intn(3))
		n := 2 + rng.Intn(3)
		w := randomWitness(rng, typ, n)
		j := rng.Intn(n)
		for _, team := range []int{TeamA, TeamB} {
			fast, err := RSet(typ, w, team, j)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := RSetBrute(typ, w, team, j)
			if err != nil {
				t.Fatal(err)
			}
			if !setsEqualPairs(fast, brute) {
				t.Fatalf("trial %d: RSet mismatch for %s team %d j %d\nwitness %s\nfast  %v\nbrute %v",
					trial, typ.Name(), team, j, w, fast, brute)
			}
		}
	}
}

// TestVerifyRecordingMatchesBrute compares the full verification.
func TestVerifyRecordingMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		typ := newRandomType(rng, 2+rng.Intn(4), 1+rng.Intn(3))
		w := randomWitness(rng, typ, 2+rng.Intn(4))
		fast, err := VerifyRecording(typ, w)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := VerifyRecordingBrute(typ, w)
		if err != nil {
			t.Fatal(err)
		}
		if fast.OK != brute.OK {
			t.Fatalf("trial %d: verification mismatch for %s\nwitness %s\nfast %v brute %v",
				trial, typ.Name(), w, fast, brute)
		}
	}
}

// TestFigure1ImplicationsOnRandomTypes checks Observations 5/6 and
// Theorem 16 hold on random types — if any failed, either the checker or
// the paper would be wrong.
func TestFigure1ImplicationsOnRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		typ := newRandomType(rng, 2+rng.Intn(3), 1+rng.Intn(2))
		has := map[[2]int]bool{} // (level, 0=rec/1=disc)
		for n := 2; n <= 4; n++ {
			wr, err := SearchRecording(typ, n)
			if err != nil {
				t.Fatal(err)
			}
			wd, err := SearchDiscerning(typ, n)
			if err != nil {
				t.Fatal(err)
			}
			has[[2]int{n, 0}] = wr != nil
			has[[2]int{n, 1}] = wd != nil
		}
		for n := 2; n <= 4; n++ {
			if has[[2]int{n, 0}] && !has[[2]int{n, 1}] {
				t.Fatalf("trial %d: %s is %d-recording but not %d-discerning (Observation 5)", trial, typ.Name(), n, n)
			}
			if n >= 3 && has[[2]int{n, 0}] && !has[[2]int{n - 1, 0}] {
				t.Fatalf("trial %d: %s violates Observation 6 at n=%d", trial, typ.Name(), n)
			}
			if n >= 4 && has[[2]int{n, 1}] && !has[[2]int{n - 2, 0}] {
				t.Fatalf("trial %d: %s violates Theorem 16 at n=%d", trial, typ.Name(), n)
			}
		}
		if has[[2]int{3, 1}] && !has[[2]int{2, 0}] {
			t.Fatalf("trial %d: %s violates Proposition 18", trial, typ.Name())
		}
	}
}

// TestQSetBruteAgreesOnZooWitnesses cross-validates on the hand-built
// paper witnesses too (cheap sizes only).
func TestQSetBruteAgreesOnZooWitnesses(t *testing.T) {
	cases := []struct {
		typ spec.Type
		w   Witness
	}{
		{types.NewSn(3), paperSnWitness(3)},
		{types.NewSn(4), paperSnWitness(4)},
		{types.NewTn(4), Witness{
			Q0:    types.TnBottom,
			Teams: []int{TeamA, TeamA, TeamB, TeamB},
			Ops:   []spec.Op{"opA", "opA", "opB", "opB"},
		}},
	}
	for _, c := range cases {
		for _, team := range []int{TeamA, TeamB} {
			fast, err := QSet(c.typ, c.w, team)
			if err != nil {
				t.Fatal(err)
			}
			brute, err := QSetBrute(c.typ, c.w, team)
			if err != nil {
				t.Fatal(err)
			}
			if !setsEqualStates(fast, brute) {
				t.Fatalf("%s team %d: fast %v brute %v", c.typ.Name(), team, fast, brute)
			}
		}
	}
}

// TestQuickWitnessEquivalence drives quick.Check over witness seeds for
// extra randomized coverage.
func TestQuickWitnessEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := newRandomType(rng, 2+rng.Intn(3), 1+rng.Intn(2))
		w := randomWitness(rng, typ, 2+rng.Intn(3))
		fast, err1 := VerifyRecording(typ, w)
		brute, err2 := VerifyRecordingBrute(typ, w)
		return err1 == nil && err2 == nil && fast.OK == brute.OK
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWitnessPermutationInvariance: the recording property depends only
// on (q0, per-team operation multisets), so permuting process indices
// within teams must not change the verdict.
func TestWitnessPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		typ := newRandomType(rng, 2+rng.Intn(3), 1+rng.Intn(3))
		w := randomWitness(rng, typ, 3+rng.Intn(2))
		base, err := VerifyRecording(typ, w)
		if err != nil {
			t.Fatal(err)
		}
		// Shuffle processes (keeping team/op pairs together).
		perm := rng.Perm(w.N())
		shuffled := Witness{Q0: w.Q0}
		for _, i := range perm {
			shuffled.Teams = append(shuffled.Teams, w.Teams[i])
			shuffled.Ops = append(shuffled.Ops, w.Ops[i])
		}
		got, err := VerifyRecording(typ, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != base.OK {
			t.Fatalf("trial %d: permutation changed verdict for %s\noriginal %s: %v\nshuffled %s: %v",
				trial, typ.Name(), w, base, shuffled, got)
		}
	}
}

// TestTeamSwapSymmetry: swapping the two teams' labels must not change
// the recording verdict (the definition is symmetric in A and B).
func TestTeamSwapSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		typ := newRandomType(rng, 2+rng.Intn(3), 1+rng.Intn(3))
		w := randomWitness(rng, typ, 2+rng.Intn(3))
		base, err := VerifyRecording(typ, w)
		if err != nil {
			t.Fatal(err)
		}
		swapped := Witness{Q0: w.Q0, Ops: w.Ops}
		for _, team := range w.Teams {
			swapped.Teams = append(swapped.Teams, 1-team)
		}
		got, err := VerifyRecording(typ, swapped)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != base.OK {
			t.Fatalf("trial %d: team swap changed verdict for %s\n%s: %v vs %s: %v",
				trial, typ.Name(), w, base, swapped, got)
		}
	}
}
