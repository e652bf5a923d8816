package checker

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rcons/internal/atlas"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// This file provides brute-force reference implementations of the Q_X
// and R_{X,j} sets, enumerating every permutation of every subset of
// distinct processes directly from Definitions 2 and 4 — no counts
// abstraction, no memoization. They are exponentially slower than QSet
// and RSet but obviously correct, and the property tests cross-validate
// the fast implementations against them on randomly generated types
// (below). They also serve as executable statements of the definitions
// for readers of the code.

// qSetBrute computes Q_X by enumerating all sequences of distinct
// processes whose first process is on team x, applying Definitions 4's
// construction literally.
func qSetBrute(t spec.Type, w Witness, x int) (map[spec.State]bool, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	out := map[spec.State]bool{}
	n := w.N()
	used := make([]bool, n)
	var rec func(s spec.State, depth int) error
	rec = func(s spec.State, depth int) error {
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if depth == 0 && w.Teams[i] != x {
				continue // the first process must be on team x
			}
			ns, _, err := t.Apply(s, w.Ops[i])
			if err != nil {
				return fmt.Errorf("checker: brute Q: %w", err)
			}
			out[ns] = true
			used[i] = true
			if err := rec(ns, depth+1); err != nil {
				used[i] = false
				return err
			}
			used[i] = false
		}
		return nil
	}
	if err := rec(w.Q0, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// rSetBrute computes R_{X,j} by enumerating all sequences of distinct
// processes that include j and start with a process on team x, recording
// the pair (response of op_j, final state) for every such sequence.
func rSetBrute(t spec.Type, w Witness, x, j int) (map[RPair]bool, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if j < 0 || j >= w.N() {
		return nil, fmt.Errorf("checker: process index %d out of range", j)
	}
	out := map[RPair]bool{}
	n := w.N()
	used := make([]bool, n)
	var rec func(s spec.State, depth int, jResp spec.Response, jUsed bool) error
	rec = func(s spec.State, depth int, jResp spec.Response, jUsed bool) error {
		if jUsed {
			out[RPair{Resp: jResp, State: s}] = true
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if depth == 0 && w.Teams[i] != x {
				continue
			}
			ns, r, err := t.Apply(s, w.Ops[i])
			if err != nil {
				return fmt.Errorf("checker: brute R: %w", err)
			}
			nResp, nUsed := jResp, jUsed
			if i == j {
				nResp, nUsed = r, true
			}
			used[i] = true
			if err := rec(ns, depth+1, nResp, nUsed); err != nil {
				used[i] = false
				return err
			}
			used[i] = false
		}
		return nil
	}
	if err := rec(w.Q0, 0, "", false); err != nil {
		return nil, err
	}
	return out, nil
}

// verifyRecordingBrute is VerifyRecording computed from the brute-force
// Q sets.
func verifyRecordingBrute(t spec.Type, w Witness) (Result, error) {
	qa, err := qSetBrute(t, w, TeamA)
	if err != nil {
		return Result{}, err
	}
	qb, err := qSetBrute(t, w, TeamB)
	if err != nil {
		return Result{}, err
	}
	for s := range qa {
		if qb[s] {
			return fail("condition 1: state %q is in both Q_A and Q_B", s), nil
		}
	}
	if qa[w.Q0] && w.TeamSize(TeamB) != 1 {
		return fail("condition 2: q0 ∈ Q_A but |B| ≠ 1"), nil
	}
	if qb[w.Q0] && w.TeamSize(TeamA) != 1 {
		return fail("condition 3: q0 ∈ Q_B but |A| ≠ 1"), nil
	}
	return Result{OK: true}, nil
}

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
			brute, err := qSetBrute(typ, w, team)
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
			brute, err := rSetBrute(typ, w, team, j)
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
		brute, err := verifyRecordingBrute(typ, w)
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
			brute, err := qSetBrute(c.typ, c.w, team)
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
		brute, err2 := verifyRecordingBrute(typ, w)
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
