package census

import (
	"fmt"
	"math/rand"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/checker"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// classSummary is the label-free core of a Classification: everything
// except the type name and the witnesses' concrete state/op labels.
// Metamorphic relations compare these, since relabeling necessarily
// changes the labels inside witnesses.
type classSummary struct {
	Readable              bool
	RecMax, DiscMax       int
	RecAtLimit, DiscAtLim bool
	ConsLo, ConsHi        int
	RconsLo, RconsHi      int
}

func summarize(c checker.Classification) classSummary {
	return classSummary{
		Readable: c.Readable,
		RecMax:   c.Recording.Max, DiscMax: c.Discerning.Max,
		RecAtLimit: c.Recording.AtLimit, DiscAtLim: c.Discerning.AtLimit,
		ConsLo: c.ConsLo, ConsHi: c.ConsHi,
		RconsLo: c.RconsLo, RconsHi: c.RconsHi,
	}
}

// relabelCustom renames every state, op and response of c consistently
// with fresh, rng-shuffled names.
func relabelCustom(rng *rand.Rand, c *types.Custom) *types.Custom {
	var states, ops []string
	for s := range c.Transitions {
		states = append(states, s)
	}
	for op := range c.Transitions[states[0]] {
		ops = append(ops, op)
	}
	rset := map[string]bool{}
	for _, row := range c.Transitions {
		for _, e := range row {
			rset[e.Resp] = true
		}
	}
	var resps []string
	for r := range rset {
		resps = append(resps, r)
	}

	fresh := func(prefix string, names []string) map[string]string {
		perm := rng.Perm(len(names))
		m := make(map[string]string, len(names))
		for i, name := range names {
			m[name] = fmt.Sprintf("%s_%d_x", prefix, perm[i])
		}
		return m
	}
	sm := fresh("S", states)
	om := fresh("O", ops)
	rm := fresh("R", resps)

	out := &types.Custom{
		TypeName:    c.TypeName + "-relabeled",
		Transitions: map[string]map[string]types.CustomEdge{},
	}
	if c.ReadableFlag != nil {
		f := *c.ReadableFlag
		out.ReadableFlag = &f
	}
	for _, init := range c.Initial {
		out.Initial = append(out.Initial, sm[init])
	}
	for s, row := range c.Transitions {
		nrow := map[string]types.CustomEdge{}
		for op, e := range row {
			nrow[om[op]] = types.CustomEdge{Next: sm[e.Next], Resp: rm[e.Resp]}
		}
		out.Transitions[sm[s]] = nrow
	}
	return out
}

// TestMetamorphicRelabelingZoo: for every zoo type, the tabulated
// transition table and a random consistent relabeling of it classify
// identically (Classification is a function of structure, not labels).
func TestMetamorphicRelabelingZoo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const limit = 3
	for _, zt := range types.Zoo() {
		base, err := atlas.Tabulate(zt, limit, 2048)
		if err != nil {
			t.Logf("skipping %s: %v", zt.Name(), err)
			continue
		}
		rel := relabelCustom(rng, base)
		if err := rel.Validate(); err != nil {
			t.Fatalf("%s: relabeling broke the table: %v", zt.Name(), err)
		}
		cb, err := checker.Classify(base, limit)
		if err != nil {
			t.Fatalf("%s: %v", zt.Name(), err)
		}
		cr, err := checker.Classify(rel, limit)
		if err != nil {
			t.Fatalf("%s relabeled: %v", zt.Name(), err)
		}
		if summarize(cb) != summarize(cr) {
			t.Errorf("%s: classification not relabeling-invariant:\nbase      %+v\nrelabeled %+v",
				zt.Name(), summarize(cb), summarize(cr))
		}
	}
}

// TestMetamorphicRelabelingGenerated: the same relation over a seeded
// sample of generated tables, including non-ack response alphabets.
func TestMetamorphicRelabelingGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	const limit = 3
	for trial := 0; trial < trials; trial++ {
		tbl := atlas.Random(rng, 2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3))
		base := tbl.Custom()
		rel := relabelCustom(rng, base)
		cb, err := checker.Classify(base, limit)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := checker.Classify(rel, limit)
		if err != nil {
			t.Fatal(err)
		}
		if summarize(cb) != summarize(cr) {
			t.Fatalf("trial %d: classification not relabeling-invariant for %s:\nbase      %+v\nrelabeled %+v",
				trial, tbl.Dims(), summarize(cb), summarize(cr))
		}
	}
}

// TestMetamorphicCanonicalization: a table and its atlas canonical form
// classify identically — canonicalization is a relabeling, nothing more.
func TestMetamorphicCanonicalization(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	const limit = 3
	for trial := 0; trial < trials; trial++ {
		tbl := atlas.Random(rng, 2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3))
		canon, ok := tbl.Canonical()
		if !ok {
			t.Fatalf("trial %d: %s not canonicalizable", trial, tbl.Dims())
		}
		cb, err := checker.Classify(tbl, limit)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := checker.Classify(canon, limit)
		if err != nil {
			t.Fatal(err)
		}
		sb, sc := summarize(cb), summarize(cc)
		// Canonicalization may drop unused response indices; that cannot
		// change any classification field (responses only matter through
		// the transition function, which is preserved).
		if sb != sc {
			t.Fatalf("trial %d: canonical form classifies differently for %s:\noriginal  %+v\ncanonical %+v",
				trial, tbl.Dims(), sb, sc)
		}
	}
}

// TestMetamorphicCanonicalZooTables: zoo types small enough to densify
// classify the same as their canonical all-initial Table form. (The
// all-initial semantics must match, so only types whose InitialStates
// already cover the reachable space qualify.)
func TestMetamorphicCanonicalZooTables(t *testing.T) {
	const limit = 3
	for _, zt := range []spec.Type{types.NewSticky(), types.TestAndSet{}, types.NewSn(2), types.NewSn(3)} {
		tbl, err := atlas.FromType(zt, limit, 64)
		if err != nil {
			t.Fatalf("%s: %v", zt.Name(), err)
		}
		if tbl.NumStates() != len(zt.InitialStates()) {
			continue // initial states don't cover the space; semantics differ
		}
		canon, ok := tbl.Canonical()
		if !ok {
			t.Fatalf("%s: not canonicalizable", zt.Name())
		}
		c1, err := checker.Classify(tbl, limit)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := checker.Classify(canon, limit)
		if err != nil {
			t.Fatal(err)
		}
		if summarize(c1) != summarize(c2) {
			t.Errorf("%s: canonical table classifies differently:\n%+v\nvs\n%+v",
				zt.Name(), summarize(c1), summarize(c2))
		}
	}
}
