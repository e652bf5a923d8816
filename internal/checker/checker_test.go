package checker

import (
	"reflect"
	"testing"

	"rcons/internal/spec"
	"rcons/internal/types"
)

// paperSnWitness is the witness from the proof of Proposition 21:
// q0 = (B,0), A = {p1} with opA, B = {p2, …, pn} with opB.
func paperSnWitness(n int) Witness {
	w := Witness{Q0: types.SnInitial, Teams: []int{TeamA}, Ops: []spec.Op{"opA"}}
	for i := 1; i < n; i++ {
		w.Teams = append(w.Teams, TeamB)
		w.Ops = append(w.Ops, "opB")
	}
	return w
}

func TestWitnessValidate(t *testing.T) {
	good := paperSnWitness(3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
	bad := Witness{Q0: "x", Teams: []int{TeamA, TeamA}, Ops: []spec.Op{"a", "b"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("one-team witness accepted")
	}
	mismatched := Witness{Q0: "x", Teams: []int{TeamA, TeamB}, Ops: []spec.Op{"a"}}
	if err := mismatched.Validate(); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestQSetSnMatchesPaper(t *testing.T) {
	// Proof of Proposition 21: Q_A = {(A,row)} and Q_B = {(B,row)}.
	n := 4
	sn := types.NewSn(n)
	w := paperSnWitness(n)
	qa, err := QSet(sn, w, TeamA)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := QSet(sn, w, TeamB)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < n; row++ {
		if !qa[spec.State("A,"+itoa(row))] {
			t.Errorf("Q_A missing (A,%d); Q_A = %v", row, qa)
		}
	}
	for s := range qa {
		if s[0] != 'A' {
			t.Errorf("Q_A contains non-A state %q", s)
		}
	}
	for s := range qb {
		if s[0] != 'B' {
			t.Errorf("Q_B contains non-B state %q", s)
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestVerifyRecordingSnPaperWitness(t *testing.T) {
	for n := 2; n <= 6; n++ {
		sn := types.NewSn(n)
		res, err := VerifyRecording(sn, paperSnWitness(n))
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Errorf("S_%d paper witness rejected: %s", n, res.Reason)
		}
	}
}

func TestVerifyDiscerningSnPaperWitness(t *testing.T) {
	// Observation 5: the same witness must be n-discerning.
	for n := 2; n <= 5; n++ {
		sn := types.NewSn(n)
		res, err := VerifyDiscerning(sn, paperSnWitness(n))
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Errorf("S_%d paper witness not discerning: %s", n, res.Reason)
		}
	}
}

func TestSnExactLevels(t *testing.T) {
	// Proposition 21: S_n is n-recording but not (n+1)-discerning, hence
	// rcons(S_n) = cons(S_n) = n.
	for n := 2; n <= 5; n++ {
		sn := types.NewSn(n)
		rec, err := MaxRecording(sn, n+2)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Max != n || rec.AtLimit {
			t.Errorf("MaxRecording(S_%d) = %s, want %d", n, rec, n)
		}
		disc, err := MaxDiscerning(sn, n+2)
		if err != nil {
			t.Fatal(err)
		}
		if disc.Max != n || disc.AtLimit {
			t.Errorf("MaxDiscerning(S_%d) = %s, want %d", n, disc, n)
		}
	}
}

func TestTnProposition19(t *testing.T) {
	// Proposition 19: T_n is n-discerning but not (n-1)-recording.
	for n := 4; n <= 6; n++ {
		tn := types.NewTn(n)
		w, err := SearchDiscerning(tn, n)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			t.Errorf("T_%d: no %d-discerning witness found", n, n)
		}
		w, err = SearchRecording(tn, n-1)
		if err != nil {
			t.Fatal(err)
		}
		if w != nil {
			t.Errorf("T_%d: unexpectedly (n-1)-recording via %s", n, w)
		}
	}
}

func TestTnPaperDiscerningWitness(t *testing.T) {
	// The witness from the proof: q0 = (⊥,0,0), team A of size ⌊n/2⌋ with
	// opA, team B of size ⌈n/2⌉ with opB.
	for n := 4; n <= 7; n++ {
		tn := types.NewTn(n)
		w := Witness{Q0: types.TnBottom}
		for i := 0; i < n/2; i++ {
			w.Teams = append(w.Teams, TeamA)
			w.Ops = append(w.Ops, "opA")
		}
		for i := 0; i < (n+1)/2; i++ {
			w.Teams = append(w.Teams, TeamB)
			w.Ops = append(w.Ops, "opB")
		}
		res, err := VerifyDiscerning(tn, w)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Errorf("T_%d paper discerning witness rejected: %s", n, res.Reason)
		}
	}
}

func TestTnIsNMinus2Recording(t *testing.T) {
	// Theorem 16 requires every n-discerning type to be (n-2)-recording;
	// check the checker finds the witness for T_n.
	for n := 4; n <= 6; n++ {
		tn := types.NewTn(n)
		w, err := SearchRecording(tn, n-2)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			t.Errorf("T_%d: no (n-2)-recording witness found, contradicting Theorem 16", n)
		}
	}
}

func TestCASRecordingAtEveryLevel(t *testing.T) {
	rec, err := MaxRecording(types.NewCAS(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.AtLimit {
		t.Errorf("MaxRecording(CAS) = %s, want ≥6", rec)
	}
}

func TestStickyAndConsensusUnbounded(t *testing.T) {
	for _, typ := range []spec.Type{types.NewSticky(), types.NewConsensus()} {
		rec, err := MaxRecording(typ, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.AtLimit {
			t.Errorf("MaxRecording(%s) = %s, want ≥5", typ.Name(), rec)
		}
		disc, err := MaxDiscerning(typ, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !disc.AtLimit {
			t.Errorf("MaxDiscerning(%s) = %s, want ≥5", typ.Name(), disc)
		}
	}
}

func TestRegisterIsWeak(t *testing.T) {
	reg := types.NewRegister()
	disc, err := MaxDiscerning(reg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if disc.Max != 1 {
		t.Errorf("MaxDiscerning(register) = %s, want 1 (cons(register)=1)", disc)
	}
	rec, err := MaxRecording(reg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Max != 1 {
		t.Errorf("MaxRecording(register) = %s, want 1", rec)
	}
}

func TestWeakTypesNotDiscerning(t *testing.T) {
	for _, typ := range []spec.Type{types.NewCounter(8), types.NewMaxRegister()} {
		disc, err := MaxDiscerning(typ, 3)
		if err != nil {
			t.Fatal(err)
		}
		if disc.Max != 1 {
			t.Errorf("MaxDiscerning(%s) = %s, want 1", typ.Name(), disc)
		}
	}
}

func TestTestAndSetLevels(t *testing.T) {
	tas := types.TestAndSet{}
	disc, err := MaxDiscerning(tas, 4)
	if err != nil {
		t.Fatal(err)
	}
	if disc.Max != 2 || disc.AtLimit {
		t.Errorf("MaxDiscerning(test&set) = %s, want 2 (cons=2)", disc)
	}
	rec, err := MaxRecording(tas, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Max != 1 {
		t.Errorf("MaxRecording(test&set) = %s, want 1 (its single reachable non-initial state cannot record the winner)", rec)
	}
}

func TestPlainStackRecordingButNotReadable(t *testing.T) {
	// The plain stack satisfies the *syntactic* n-recording property for
	// every n — a push-only witness works because the bottom element
	// permanently records which team pushed first. Yet rcons(stack) = 1
	// (Appendix H): Theorem 8 does not apply because the stack is not
	// readable (processes can only learn state through pop responses).
	// This test pins down both halves of that explanation: the recording
	// witness exists, and the type is flagged non-readable so the
	// classifier refuses to derive an rcons lower bound from it.
	st := types.NewStack(4)
	if types.Readable(st) {
		t.Fatal("plain stack must be non-readable")
	}
	for n := 2; n <= 4; n++ {
		w, err := SearchRecording(st, n)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			t.Errorf("plain stack: expected an %d-recording witness (readability, not recording, is what fails)", n)
		}
	}
	c, err := Classify(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.RconsLo != 1 {
		t.Errorf("classifier derived rcons ≥ %d for the non-readable stack; Theorem 8 must not be applied", c.RconsLo)
	}
}

func TestReadableStackIsStrong(t *testing.T) {
	st := &types.Stack{Cap: 6, Values: []string{"0", "1"}, AllowRead: true}
	rec, err := MaxRecording(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.AtLimit {
		t.Errorf("MaxRecording(readable stack) = %s, want ≥5", rec)
	}
}

func TestObservation5RecordingImpliesDiscerning(t *testing.T) {
	// Observation 5 on every recording witness the searches produce for
	// the whole zoo at n = 2..4.
	for _, typ := range types.Zoo() {
		for n := 2; n <= 4; n++ {
			w, err := SearchRecording(typ, n)
			if err != nil {
				t.Fatalf("%s: %v", typ.Name(), err)
			}
			if w == nil {
				continue
			}
			res, err := VerifyDiscerning(typ, *w)
			if err != nil {
				t.Fatalf("%s: %v", typ.Name(), err)
			}
			if !res.OK {
				t.Errorf("%s: %d-recording witness %s is not discerning: %s — violates Observation 5",
					typ.Name(), n, w, res.Reason)
			}
		}
	}
}

func TestObservation6DropProcess(t *testing.T) {
	// Observation 6: from an n-recording witness (n ≥ 3), dropping one
	// process from the larger team yields an (n-1)-recording witness.
	for _, typ := range types.Zoo() {
		for n := 3; n <= 4; n++ {
			w, err := SearchRecording(typ, n)
			if err != nil {
				t.Fatalf("%s: %v", typ.Name(), err)
			}
			if w == nil {
				continue
			}
			larger := TeamA
			if w.TeamSize(TeamB) > w.TeamSize(TeamA) {
				larger = TeamB
			}
			if w.TeamSize(larger) < 2 {
				continue
			}
			drop := w.Members(larger)[0]
			smaller := Witness{Q0: w.Q0}
			for i := range w.Teams {
				if i == drop {
					continue
				}
				smaller.Teams = append(smaller.Teams, w.Teams[i])
				smaller.Ops = append(smaller.Ops, w.Ops[i])
			}
			res, err := VerifyRecording(typ, smaller)
			if err != nil {
				t.Fatalf("%s: %v", typ.Name(), err)
			}
			if !res.OK {
				t.Errorf("%s: dropping a process broke recording (%s) — violates Observation 6",
					typ.Name(), res.Reason)
			}
		}
	}
}

func TestTheorem16DiscerningImpliesNMinus2Recording(t *testing.T) {
	// For every zoo type that is n-discerning (n = 4, 5), confirm it is
	// (n-2)-recording, per Theorem 16.
	for _, typ := range types.Zoo() {
		if !types.Readable(typ) {
			continue
		}
		for n := 4; n <= 5; n++ {
			wd, err := SearchDiscerning(typ, n)
			if err != nil {
				t.Fatalf("%s: %v", typ.Name(), err)
			}
			if wd == nil {
				continue
			}
			wr, err := SearchRecording(typ, n-2)
			if err != nil {
				t.Fatalf("%s: %v", typ.Name(), err)
			}
			if wr == nil {
				t.Errorf("%s: %d-discerning but not %d-recording — violates Theorem 16",
					typ.Name(), n, n-2)
			}
		}
	}
}

func TestProposition18ThreeDiscerningImpliesTwoRecording(t *testing.T) {
	for _, typ := range types.Zoo() {
		if !types.Readable(typ) {
			continue
		}
		wd, err := SearchDiscerning(typ, 3)
		if err != nil {
			t.Fatalf("%s: %v", typ.Name(), err)
		}
		if wd == nil {
			continue
		}
		wr, err := SearchRecording(typ, 2)
		if err != nil {
			t.Fatalf("%s: %v", typ.Name(), err)
		}
		if wr == nil {
			t.Errorf("%s: 3-discerning but not 2-recording — violates Proposition 18", typ.Name())
		}
	}
}

func TestRSetTestAndSet(t *testing.T) {
	// Hand-computed R sets for test&set with both processes assigned tas:
	// R_{A,0} = {(0,1) from [tas0], (0,1) from [tas0,tas1]} = {(0,"1")};
	// R_{B,0} = {(1,"1")}.
	w := Witness{Q0: "0", Teams: []int{TeamA, TeamB}, Ops: []spec.Op{"tas", "tas"}}
	ra, err := RSet(types.TestAndSet{}, w, TeamA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != 1 || !ra[RPair{Resp: "0", State: "1"}] {
		t.Errorf("R_{A,0} = %v, want {(0,1)}", ra)
	}
	rb, err := RSet(types.TestAndSet{}, w, TeamB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb) != 1 || !rb[RPair{Resp: "1", State: "1"}] {
		t.Errorf("R_{B,0} = %v, want {(1,1)}", rb)
	}
}

func TestMultisets(t *testing.T) {
	// The order fixes which witness a search reports first.
	for _, tc := range []struct {
		m, k int
		want [][]int
	}{
		{2, 3, [][]int{{3, 0}, {2, 1}, {1, 2}, {0, 3}}},
		{3, 2, [][]int{{2, 0, 0}, {1, 1, 0}, {1, 0, 1}, {0, 2, 0}, {0, 1, 1}, {0, 0, 2}}},
		{1, 2, [][]int{{2}}},
	} {
		var got [][]int
		multisets(tc.m, tc.k, func(c []int) bool {
			got = append(got, append([]int(nil), c...))
			return true
		})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("multisets(%d,%d) = %v, want %v", tc.m, tc.k, got, tc.want)
		}
	}
}

func TestMultisetsEarlyStop(t *testing.T) {
	calls := 0
	ok := multisets(3, 2, func([]int) bool {
		calls++
		return calls < 2
	})
	if ok || calls != 2 {
		t.Errorf("early stop: ok=%v calls=%d", ok, calls)
	}
}

func TestSearchRejectsTinyN(t *testing.T) {
	if _, err := SearchRecording(types.NewCAS(), 1); err == nil {
		t.Error("SearchRecording accepted n = 1")
	}
}

func TestReadOnlyHasNoWitness(t *testing.T) {
	w, err := SearchRecording(types.ReadOnly{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Errorf("read-only type produced witness %s", w)
	}
}

func TestPeekQueueUnboundedLevels(t *testing.T) {
	// A queue with peek keeps its first element observable forever, so
	// enq-only witnesses make it n-recording (and n-discerning) for every
	// n — the classical cons(queue+peek) = ∞ carries over to rcons.
	q := types.NewPeekQueue(6)
	rec, err := MaxRecording(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.AtLimit {
		t.Errorf("MaxRecording(peek-queue) = %s, want ≥5", rec)
	}
	disc, err := MaxDiscerning(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !disc.AtLimit {
		t.Errorf("MaxDiscerning(peek-queue) = %s, want ≥4", disc)
	}
}
