package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// referenceFingerprint is the original fmt-based formulation of
// Fingerprint, kept verbatim as an oracle: the optimized builder must
// hash the exact same byte stream, because fingerprints key the
// persistent result store and must stay stable across releases.
func referenceFingerprint(t spec.Type, n int) (string, bool) {
	h := sha256.New()
	fmt.Fprintf(h, "name=%s\nn=%d\n", t.Name(), n)
	states := t.InitialStates()
	for _, s := range states {
		fmt.Fprintf(h, "init=%q\n", s)
	}
	ops := spec.CandidateOps(t, n)
	for _, op := range ops {
		fmt.Fprintf(h, "op=%q\n", op)
	}
	seen := map[spec.State]bool{}
	var frontier []spec.State
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			frontier = append(frontier, s)
		}
	}
	var all []spec.State
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		all = append(all, s)
		for _, op := range ops {
			ns, _, err := t.Apply(s, op)
			if err != nil {
				return "", false
			}
			if !seen[ns] {
				if len(seen) >= compile.StateCap {
					return "", false
				}
				seen[ns] = true
				frontier = append(frontier, ns)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, s := range all {
		for _, op := range ops {
			ns, r, err := t.Apply(s, op)
			if err != nil {
				return "", false
			}
			fmt.Fprintf(h, "%q/%q->%q/%q\n", s, op, ns, r)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// referenceCanonicalFingerprint is the Apply-driven CanonicalFingerprint
// that rendered the canonical identity before it was read off the
// compiled table, kept verbatim as an oracle: rcserve reports the
// canonical fingerprint, so its text must not drift.
func referenceCanonicalFingerprint(t spec.Type, n int) (fp string, ok bool) {
	ops := spec.CandidateOps(t, n)
	inits := t.InitialStates()
	if len(ops) == 0 || len(inits) == 0 ||
		len(ops) > canonicalOpCap || len(inits) > canonicalInitCap {
		return "", false
	}
	if factorial(len(ops))*factorial(len(inits)) > canonicalComboCap {
		return "", false
	}
	best := ""
	for _, opPerm := range referencePermutations(len(ops)) {
		permOps := make([]spec.Op, len(ops))
		for i, j := range opPerm {
			permOps[i] = ops[j]
		}
		for _, initPerm := range referencePermutations(len(inits)) {
			permInits := make([]spec.State, len(inits))
			for i, j := range initPerm {
				permInits[i] = inits[j]
			}
			enc, ok := referenceCanonicalEncoding(t, permInits, permOps)
			if !ok {
				return "", false
			}
			if best == "" || enc < best {
				best = enc
			}
		}
	}
	sum := sha256.Sum256([]byte(best))
	return hex.EncodeToString(sum[:]), true
}

// referenceCanonicalEncoding renders the transition table reachable from inits
// (in order) under ops (in order) using only discovery indices — no
// state, operation or response label survives into the encoding.
func referenceCanonicalEncoding(t spec.Type, inits []spec.State, ops []spec.Op) (string, bool) {
	var b strings.Builder
	stateID := map[spec.State]int{}
	respID := map[spec.Response]int{}
	var order []spec.State
	intern := func(s spec.State) int {
		if id, ok := stateID[s]; ok {
			return id
		}
		id := len(stateID)
		stateID[s] = id
		order = append(order, s)
		return id
	}
	fmt.Fprintf(&b, "n_ops=%d\ninit=", len(ops))
	for _, s := range inits {
		fmt.Fprintf(&b, "%d,", intern(s))
	}
	b.WriteString("\n")
	for i := 0; i < len(order); i++ { // order grows as states are discovered
		if len(order) > compile.StateCap {
			return "", false
		}
		s := order[i]
		for j, op := range ops {
			ns, r, err := t.Apply(s, op)
			if err != nil {
				return "", false
			}
			rid, ok := respID[r]
			if !ok {
				rid = len(respID)
				respID[r] = rid
			}
			fmt.Fprintf(&b, "%d.%d->%d/%d\n", i, j, intern(ns), rid)
		}
	}
	return b.String(), true
}

// referencePermutations returns all permutations of 0..k-1 (k small, capped by
// the canonical* constants).
func referencePermutations(k int) [][]int {
	base := make([]int, k)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(prefix []int, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(prefix, rest[i]), next)
		}
	}
	rec(nil, base)
	return out
}

// TestFingerprintMatchesReference locks the optimized Fingerprint to
// the fmt-based byte stream it replaced, over the whole zoo at several
// process counts.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, typ := range types.Zoo() {
		for n := 2; n <= 4; n++ {
			got, gotOK := Fingerprint(typ, n)
			want, wantOK := referenceFingerprint(typ, n)
			if gotOK != wantOK || got != want {
				t.Errorf("Fingerprint(%s, %d) = %q, %v; reference = %q, %v",
					typ.Name(), n, got, gotOK, want, wantOK)
			}
		}
	}
}

// dupOps offers its type's alphabet with the first op repeated.
type dupOps struct{ spec.Type }

func (d dupOps) OpsFor(n int) []spec.Op {
	ops := spec.CandidateOps(d.Type, n)
	return append(ops, ops[0])
}

// noInits reports no initial states.
type noInits struct{ spec.Type }

func (noInits) InitialStates() []spec.State { return nil }

// failAt fails one transition of its type.
type failAt struct {
	spec.Type
	s  spec.State
	op spec.Op
}

func (f failAt) Apply(s spec.State, op spec.Op) (spec.State, spec.Response, error) {
	if s == f.s && op == f.op {
		return "", "", spec.ErrBadOp
	}
	return f.Type.Apply(s, op)
}

// unbounded is a counter with no largest state: every state space walk
// over it runs into the state cap.
type unbounded struct{}

func (unbounded) Name() string                { return "unbounded" }
func (unbounded) InitialStates() []spec.State { return []spec.State{"0"} }
func (unbounded) Ops() []spec.Op              { return []spec.Op{"inc"} }
func (unbounded) Apply(s spec.State, _ spec.Op) (spec.State, spec.Response, error) {
	i, err := strconv.Atoi(string(s))
	return spec.State(strconv.Itoa(i + 1)), "ack", err
}

// wideCustom builds a custom table with the given number of states and
// ops (state i's op j leads to state (i+j) mod states), listing every
// state as initial when allInit is set.
func wideCustom(name string, states, ops int, allInit bool) *types.Custom {
	c := &types.Custom{TypeName: name, Transitions: map[string]map[string]types.CustomEdge{}}
	for i := 0; i < states; i++ {
		row := map[string]types.CustomEdge{}
		for j := 0; j < ops; j++ {
			row[fmt.Sprintf("op%d", j)] = types.CustomEdge{Next: fmt.Sprintf("s%d", (i+j)%states), Resp: fmt.Sprintf("r%d", j%2)}
		}
		c.Transitions[fmt.Sprintf("s%d", i)] = row
	}
	if !allInit {
		c.Initial = []string{"s0"}
	}
	return c
}

// fingerprintCorpus is the oracle battery for both fingerprints: the
// zoo, random tables, and every edge the table-rendered fingerprints
// must treat exactly like the Apply-driven references.
func fingerprintCorpus() []spec.Type {
	corpus := types.Zoo()
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 60; i++ {
		corpus = append(corpus, atlas.Random(rng, 3, 2, 2))
	}
	for i := 0; i < 30; i++ {
		corpus = append(corpus, atlas.Random(rng, 4, 3, 3))
	}
	twoState := func(name string) *types.Custom {
		return &types.Custom{
			TypeName: name,
			Transitions: map[string]map[string]types.CustomEdge{
				"a": {"f": {Next: "b", Resp: "x"}, "g": {Next: "a", Resp: "y"}},
				"b": {"f": {Next: "a", Resp: "y"}, "g": {Next: "b", Resp: "x"}},
			},
		}
	}
	dupInit := twoState("dup-init")
	dupInit.Initial = []string{"b", "a", "b"}
	badOp := &types.Custom{
		TypeName: "badop",
		Initial:  []string{"q"},
		Transitions: map[string]map[string]types.CustomEdge{
			"q": {"f(a": {Next: "q", Resp: "ack"}, "g": {Next: "p", Resp: "\"quoted\""}},
			"p": {"f(a": {Next: "q", Resp: "ack"}, "g": {Next: "p", Resp: "é"}},
		},
	}
	broken := twoState("broken")
	broken.Initial = []string{"a"}
	return append(corpus,
		dupInit,
		badOp,
		failAt{broken, "b", "g"},
		dupOps{twoState("dup-ops")},
		noInits{twoState("no-inits")},
		wideCustom("op-cap", 2, 6, false),         // 6 ops > canonicalOpCap
		wideCustom("init-cap", 7, 1, true),        // 7 initial states > canonicalInitCap
		wideCustom("combo-cap", 6, 5, true),       // 5! × 6! > canonicalComboCap
		wideCustom("under-combo-cap", 5, 5, true), // 5! × 5! is within every cap
		unbounded{},
	)
}

// TestFingerprintsMatchReferences locks both table-rendered
// fingerprints to their Apply-driven references — digest and ok alike —
// over fingerprintCorpus at n = 2..5.
func TestFingerprintsMatchReferences(t *testing.T) {
	corpus := fingerprintCorpus()
	for _, typ := range corpus {
		for n := 2; n <= 5; n++ {
			checkFingerprints(t, typ, n)
		}
	}
	// The corpus must reach both outcomes of both fingerprints.
	var exactFail, canonOK, canonFail bool
	for _, typ := range corpus {
		_, ok := Fingerprint(typ, 2)
		exactFail = exactFail || !ok
		_, ok = CanonicalFingerprint(typ, 2)
		canonOK, canonFail = canonOK || ok, canonFail || !ok
	}
	if !exactFail || !canonOK || !canonFail {
		t.Fatalf("corpus misses an outcome: exact failure %v, canonical success %v / failure %v", exactFail, canonOK, canonFail)
	}
}

// checkFingerprints compares Fingerprint and CanonicalFingerprint of
// (typ, n) with their references.
func checkFingerprints(t *testing.T, typ spec.Type, n int) {
	t.Helper()
	got, gotOK := Fingerprint(typ, n)
	want, wantOK := referenceFingerprint(typ, n)
	if gotOK != wantOK || got != want {
		t.Fatalf("Fingerprint(%s, %d) = %q, %v; reference = %q, %v", typ.Name(), n, got, gotOK, want, wantOK)
	}
	got, gotOK = CanonicalFingerprint(typ, n)
	want, wantOK = referenceCanonicalFingerprint(typ, n)
	if gotOK != wantOK || got != want {
		t.Fatalf("CanonicalFingerprint(%s, %d) = %q, %v; reference = %q, %v", typ.Name(), n, got, gotOK, want, wantOK)
	}
}

// multiDigitCustom builds the seeded random custom table of
// TestCanonicalFingerprintMultiDigitIDs: 11–16 states, 2–3 ops, two
// responses and 1–3 initial states (repeats allowed), so its canonical
// encodings carry ids of two decimal digits.
func multiDigitCustom(seed int64) *types.Custom {
	rng := rand.New(rand.NewSource(seed))
	states, ops, inits := 11+rng.Intn(6), 2+rng.Intn(2), 1+rng.Intn(3)
	c := &types.Custom{TypeName: fmt.Sprintf("multi-digit-%d", seed), Transitions: map[string]map[string]types.CustomEdge{}}
	for i := 0; i < states; i++ {
		row := map[string]types.CustomEdge{}
		for j := 0; j < ops; j++ {
			row[fmt.Sprintf("op%d", j)] = types.CustomEdge{Next: fmt.Sprintf("s%d", rng.Intn(states)), Resp: fmt.Sprintf("r%d", rng.Intn(2))}
		}
		c.Transitions[fmt.Sprintf("s%d", i)] = row
	}
	for range inits {
		c.Initial = append(c.Initial, fmt.Sprintf("s%d", rng.Intn(states)))
	}
	return c
}

// TestCanonicalFingerprintMultiDigitIDs checks the canonical
// fingerprint against its reference on tables whose encodings hold ids
// of 10 and above, where the text order ("10" < "2") and the numeric
// order of ids differ. Seeds 956 and 990 are tables on which a search
// comparing ids numerically picks a different minimum.
func TestCanonicalFingerprintMultiDigitIDs(t *testing.T) {
	wide := 0
	for seed := range int64(1000) {
		typ := multiDigitCustom(seed)
		checkFingerprints(t, typ, 2)
		if c, err := compile.Table(typ, 2); err == nil && c.NumStates() > 10 && len(c.InitSeq()) > 1 {
			wide++
		}
	}
	if wide == 0 {
		t.Fatal("no table reaches more than 10 states from more than one initial state")
	}
}

// TestCanonicalFingerprintStable pins canonical digests computed before
// the encoding search was rewritten, so a format drift fails even if
// referenceCanonicalFingerprint drifted with it: rcserve reports these
// identities to API consumers.
func TestCanonicalFingerprintStable(t *testing.T) {
	var dupInit spec.Type
	for _, typ := range fingerprintCorpus() {
		if typ.Name() == "dup-init" {
			dupInit = typ
		}
	}
	for _, tc := range []struct {
		typ  spec.Type
		n    int
		want string
	}{
		{types.NewCAS(), 3, "0814cfa18d77c9c3f92a500f0affa6f5d0c2495a7dd74334dcbe1277ce9ead6d"},
		{types.NewQueue(4), 3, "07bd715fca9276e83de8b7f4373860eddbaf2d700ec4317198b8530e6130a5c4"},
		{types.NewSn(3), 3, "eeedcd3df28cce4693d1e87449304eafee88b25a969e03ce4c8f711cd0cced49"},
		{dupInit, 2, "a618c0dd877e2e20a1bfac93b6b8a1d3038ea8736b496f7462f5672a6c033b28"},
	} {
		if got, ok := CanonicalFingerprint(tc.typ, tc.n); !ok || got != tc.want {
			t.Errorf("CanonicalFingerprint(%s, %d) = %q, %v; want %q", tc.typ.Name(), tc.n, got, ok, tc.want)
		}
	}
}

// TestDecimalCmp checks decimalCmp against the byte order of the
// decimal strings it stands for.
func TestDecimalCmp(t *testing.T) {
	for a := range int32(1200) {
		for _, b := range []int32{0, 1, 2, 9, 10, 11, 12, 19, 20, 99, 100, 101, 110, 119, 120, 999, 1000, 1100, 1199} {
			want := strings.Compare(strconv.Itoa(int(a)), strconv.Itoa(int(b)))
			if got := decimalCmp(a, b); got != want {
				t.Fatalf("decimalCmp(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestFingerprintStable pins one concrete digest so an accidental
// format change (which would orphan every persisted store entry) fails
// loudly, not just relative to an in-repo oracle.
func TestFingerprintStable(t *testing.T) {
	typ, err := types.ByName("test&set")
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := Fingerprint(typ, 2)
	if !ok {
		t.Fatal("test&set must be fingerprintable")
	}
	ref, _ := referenceFingerprint(typ, 2)
	if fp != ref {
		t.Fatalf("digest drifted: %s != %s", fp, ref)
	}
	if len(fp) != 64 {
		t.Fatalf("fingerprint length = %d, want 64 hex chars", len(fp))
	}
}

// BenchmarkFingerprintZoo tracks the cost of the exact fingerprint —
// the per-level key computation on every store-backed engine path.
func BenchmarkFingerprintZoo(b *testing.B) {
	zoo := types.Zoo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range zoo {
			Fingerprint(t, 3)
		}
	}
}

// BenchmarkCanonicalFingerprintZoo tracks the cost of the canonical
// fingerprint rcserve stamps on every computed classification.
func BenchmarkCanonicalFingerprintZoo(b *testing.B) {
	zoo := types.Zoo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range zoo {
			CanonicalFingerprint(t, 3)
		}
	}
}
