package atlas

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rcons/internal/spec"
	"rcons/internal/types"
)

// TestCanonicalInvariantUnderRelabeling: permuting states and ops of a
// random table never changes its canonical key, and the canonical form
// is idempotent.
func TestCanonicalInvariantUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		states := 1 + rng.Intn(4)
		ops := 1 + rng.Intn(3)
		resps := 1 + rng.Intn(3)
		tbl := Random(rng, states, ops, resps)
		key, ok := tbl.CanonicalKey()
		if !ok {
			t.Fatalf("trial %d: %s not canonicalizable", trial, tbl.Name())
		}

		// Random relabeling: permute states and ops, shuffle response ids.
		ps := rng.Perm(states)
		po := rng.Perm(ops)
		pr := rng.Perm(resps)
		next := make([]uint8, states*ops)
		resp := make([]uint8, states*ops)
		for s := 0; s < states; s++ {
			for o := 0; o < ops; o++ {
				i := s*ops + o
				j := ps[s]*ops + po[o]
				next[j] = uint8(ps[tbl.next[i]])
				resp[j] = uint8(pr[tbl.resp[i]])
			}
		}
		rel, err := NewTable(states, ops, resps, next, resp)
		if err != nil {
			t.Fatal(err)
		}
		relKey, ok := rel.CanonicalKey()
		if !ok || relKey != key {
			t.Fatalf("trial %d: canonical key not relabeling-invariant:\n%s\nvs\n%s", trial, key, relKey)
		}

		canon, ok := tbl.Canonical()
		if !ok {
			t.Fatalf("trial %d: Canonical failed", trial)
		}
		canonKey, _ := canon.CanonicalKey()
		if canonKey != key {
			t.Fatalf("trial %d: canonicalization not idempotent: %s vs %s", trial, key, canonKey)
		}
		canon2, _ := canon.Canonical()
		if canon2.Dims() != canon.Dims() {
			t.Fatalf("trial %d: Canonical(Canonical) changed dims: %s vs %s", trial, canon.Dims(), canon2.Dims())
		}
	}
}

// TestCanonicalDistinguishes: structurally different tiny tables get
// different keys.
func TestCanonicalDistinguishes(t *testing.T) {
	mk := func(next, resp []uint8) string {
		tbl, err := NewTable(2, 1, 2, next, resp)
		if err != nil {
			t.Fatal(err)
		}
		key, ok := tbl.CanonicalKey()
		if !ok {
			t.Fatal("not canonicalizable")
		}
		return key
	}
	loop := mk([]uint8{0, 1}, []uint8{0, 0}) // both states loop
	swap := mk([]uint8{1, 0}, []uint8{0, 0}) // states swap
	tell := mk([]uint8{0, 1}, []uint8{0, 1}) // loops with distinct resps
	if loop == swap || loop == tell || swap == tell {
		t.Fatalf("distinct structures share keys: loop=%s swap=%s tell=%s", loop, swap, tell)
	}
}

// TestEnumerateSmallCounts pins the raw and canonical counts of tiny
// universes (hand-checkable) and checks RawCount agrees with the
// enumeration.
func TestEnumerateSmallCounts(t *testing.T) {
	cases := []struct {
		b       Bounds
		wantRaw int
	}{
		// 1 state, 1 op, 1 resp: exactly the trivial loop.
		{Bounds{States: 1, Ops: 1, Resps: 1}, 1},
		// 2 states, 1 op, 1 resp: blocks (1,1)=1 and (2,1)=2^2=4.
		{Bounds{States: 2, Ops: 1, Resps: 1}, 5},
		// 2 states, 2 ops, 2 resps.
		{Bounds{States: 2, Ops: 2, Resps: 2}, 1*1 + 1*2 + 4*2 + 16*8},
	}
	for _, c := range cases {
		raw, kept, err := Enumerate(c.b, func(string, *Table) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if raw != c.wantRaw {
			t.Errorf("%v: raw = %d, want %d", c.b, raw, c.wantRaw)
		}
		if got := c.b.RawCount(); got != int64(c.wantRaw) {
			t.Errorf("%v: RawCount = %d, want %d", c.b, got, c.wantRaw)
		}
		if kept < 1 || kept > raw {
			t.Errorf("%v: implausible canonical count %d of %d", c.b, kept, raw)
		}
	}
}

// TestEnumerateYieldsCanonicalReps: every yielded table is its own
// canonical representative, keys are unique, and a rerun is identical.
func TestEnumerateYieldsCanonicalReps(t *testing.T) {
	b := Bounds{States: 2, Ops: 2, Resps: 2}
	var keys []string
	seen := map[string]bool{}
	_, _, err := Enumerate(b, func(key string, tbl *Table) bool {
		if seen[key] {
			t.Fatalf("duplicate key %s", key)
		}
		seen[key] = true
		keys = append(keys, key)
		self, ok := tbl.CanonicalKey()
		if !ok || self != key {
			t.Fatalf("yielded table is not canonical: key %s, self %s", key, self)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys2 []string
	_, _, err = Enumerate(b, func(key string, tbl *Table) bool {
		keys2 = append(keys2, key)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(keys2) {
		t.Fatalf("reruns disagree: %d vs %d keys", len(keys), len(keys2))
	}
	for i := range keys {
		if keys[i] != keys2[i] {
			t.Fatalf("rerun diverged at %d: %s vs %s", i, keys[i], keys2[i])
		}
	}
}

// TestRandomDeterministic: a fixed seed yields a fixed table.
func TestRandomDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(7)), 3, 2, 3)
	b := Random(rand.New(rand.NewSource(7)), 3, 2, 3)
	ka, _ := a.CanonicalKey()
	kb, _ := b.CanonicalKey()
	if ka != kb {
		t.Fatalf("same seed, different tables: %s vs %s", ka, kb)
	}
	for i := range a.next {
		if a.next[i] != b.next[i] || a.resp[i] != b.resp[i] {
			t.Fatalf("same seed, different cells at %d", i)
		}
	}
}

// TestTableSpecType exercises the spec.Type surface.
func TestTableSpecType(t *testing.T) {
	tbl, err := NewTable(2, 2, 2, []uint8{1, 0, 1, 1}, []uint8{0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.InitialStates()); got != 2 {
		t.Fatalf("InitialStates: got %d, want 2", got)
	}
	ns, r, err := tbl.Apply("s0", "o0")
	if err != nil || ns != "s1" || r != "r0" {
		t.Fatalf("Apply(s0,o0) = (%s,%s,%v)", ns, r, err)
	}
	if _, _, err := tbl.Apply("sX", "o0"); err == nil {
		t.Fatal("Apply accepted a bad state")
	}
	if _, _, err := tbl.Apply("s0", "oX"); err == nil {
		t.Fatal("Apply accepted a bad op")
	}
	// Labels are shared across Tables of every size; one past this
	// table's dimensions must still be rejected.
	if _, _, err := tbl.Apply("s2", "o0"); !errors.Is(err, spec.ErrBadState) {
		t.Fatalf("Apply(s2, o0) on a 2-state table: %v", err)
	}
	if _, _, err := tbl.Apply("s0", "o2"); !errors.Is(err, spec.ErrBadOp) {
		t.Fatalf("Apply(s0, o2) on a 2-op table: %v", err)
	}
	if !types.Readable(tbl) {
		t.Fatal("Tables must be readable")
	}

	// Custom round trip preserves behaviour.
	c := tbl.Custom()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		for o := 0; o < 2; o++ {
			st := spec.State(fmt.Sprintf("s%d", s))
			op := spec.Op(fmt.Sprintf("o%d", o))
			n1, r1, _ := tbl.Apply(st, op)
			n2, r2, err := c.Apply(st, op)
			if err != nil || n1 != n2 || r1 != r2 {
				t.Fatalf("Custom disagrees at (%s,%s): (%s,%s) vs (%s,%s,%v)", st, op, n1, r1, n2, r2, err)
			}
		}
	}
}

// TestFromTypeRoundTrip: densifying a Table-born Custom recovers the
// same canonical class.
func TestFromTypeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tbl := Random(rng, 2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3))
		back, err := FromType(tbl.Custom(), 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		k1, _ := tbl.CanonicalKey()
		k2, _ := back.CanonicalKey()
		if k1 != k2 {
			t.Fatalf("trial %d: canonical class changed through Custom: %s vs %s", trial, k1, k2)
		}
	}
}

// TestTabulatePreservesBehaviour: the tabulation of a zoo type agrees
// with the original on every reachable (state, op) pair and preserves
// readability and initial states.
func TestTabulatePreservesBehaviour(t *testing.T) {
	for _, typ := range []spec.Type{
		types.NewSticky(),
		types.TestAndSet{},
		types.NewSn(3),
		types.NewTn(4),
		types.NewQueue(3),
	} {
		c, err := Tabulate(typ, 3, 1024)
		if err != nil {
			t.Fatalf("%s: %v", typ.Name(), err)
		}
		if types.Readable(typ) != types.Readable(c) {
			t.Fatalf("%s: readability not preserved", typ.Name())
		}
		inits := typ.InitialStates()
		if len(c.Initial) == 0 || c.Initial[0] != string(inits[0]) {
			t.Fatalf("%s: initial states not preserved: %v", typ.Name(), c.Initial)
		}
		for state := range c.Transitions {
			for _, op := range spec.CandidateOps(typ, 3) {
				n1, r1, err1 := typ.Apply(spec.State(state), op)
				n2, r2, err2 := c.Apply(spec.State(state), op)
				if err1 != nil || err2 != nil || n1 != n2 || r1 != r2 {
					t.Fatalf("%s: disagree at (%s,%s): (%s,%s,%v) vs (%s,%s,%v)",
						typ.Name(), state, op, n1, r1, err1, n2, r2, err2)
				}
			}
		}
	}
}

// TestMutateStaysValid: mutants always validate, keep the state/op sets,
// and the readability toggle is reachable.
func TestMutateStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base, err := Tabulate(types.NewSticky(), 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	sawNonReadable := false
	for trial := 0; trial < 200; trial++ {
		m := Mutate(rng, base, 1+rng.Intn(4))
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: mutant invalid: %v", trial, err)
		}
		if len(m.Transitions) != len(base.Transitions) {
			t.Fatalf("trial %d: state set changed", trial)
		}
		if !m.IsReadable() {
			sawNonReadable = true
		}
		// The original must never be touched.
		if err := base.Validate(); err != nil {
			t.Fatal(err)
		}
		if !base.IsReadable() {
			t.Fatalf("trial %d: mutation leaked into the base table", trial)
		}
	}
	if !sawNonReadable {
		t.Fatal("readability toggle never fired in 200 mutants")
	}
}
