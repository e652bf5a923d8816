package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/checker"
	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// countingType counts the Apply calls made on the type it wraps.
type countingType struct {
	spec.Type
	applies *atomic.Int64
}

func (c countingType) Apply(s spec.State, op spec.Op) (spec.State, spec.Response, error) {
	c.applies.Add(1)
	return c.Type.Apply(s, op)
}

// walk is the number of Apply calls one reachability walk of (t, n)
// makes: each candidate op once per reachable state.
func walk(t *testing.T, typ spec.Type, n int) int64 {
	t.Helper()
	c, err := compile.Table(typ, n)
	if err != nil {
		t.Fatal(err)
	}
	return int64(c.NumStates() * c.NumOps())
}

// reached is the highest level a scan that found max stops at: the
// first level without a witness, or the limit.
func reached(m checker.MaxLevel) int { return min(m.Max+1, m.Limit) }

// TestClassifyWalksEachLevelOnce: a cold Classify walks each level its
// scans reach exactly once — both property scans and the compiled
// searches share the walks — and no level above them, the limit's
// included. A repeat walks them again: the engine keeps no memo.
func TestClassifyWalksEachLevelOnce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	const limit = 4
	short, full := 0, 0
	for i := 0; i < 10; i++ {
		raw := atlas.Random(rng, 3, 2, 2)
		want, err := checker.Classify(raw, limit, nil)
		if err != nil {
			t.Fatal(err)
		}
		top := max(reached(want.Discerning), reached(want.Recording))
		if top < limit {
			short++
		} else {
			full++
		}
		var levels int64
		for n := 2; n <= top; n++ {
			levels += walk(t, raw, n)
		}
		var applies atomic.Int64
		typ := countingType{raw, &applies}
		e := New(Options{Workers: 2})
		for round := range 2 {
			applies.Store(0)
			if _, err := e.Classify(ctx, typ, limit); err != nil {
				t.Fatal(err)
			}
			if got := applies.Load(); got != levels {
				t.Fatalf("%s round %d: Classify made %d Apply calls, want %d (one walk of each level 2…%d)",
					raw.Name(), round, got, levels, top)
			}
		}
	}
	if short == 0 || full == 0 {
		t.Fatalf("%d types stopped below the limit and %d reached it; the sample must hold both", short, full)
	}
}

// readabilityPair is one 2-state table, readable and not.
func readabilityPair(t *testing.T) (readable, nonReadable *types.Custom) {
	t.Helper()
	const table = `"name":"T","initial":["0"],"transitions":{` +
		`"0":{"ts":{"next":"1","resp":"0"}},"1":{"ts":{"next":"1","resp":"1"}}}`
	r, err := types.NewCustomFromJSON([]byte(`{` + table + `}`))
	if err != nil {
		t.Fatal(err)
	}
	nr, err := types.NewCustomFromJSON([]byte(`{` + table + `,"readable":false}`))
	if err != nil {
		t.Fatal(err)
	}
	return r, nr
}

// TestClassMemoKeysReadability: readability is not part of the
// fingerprint but decides the bands, so one engine classifying the same
// table readable and non-readable, in either order, must match
// checker.Classify both times — whatever the engine keeps between calls.
func TestClassMemoKeysReadability(t *testing.T) {
	r, nr := readabilityPair(t)
	want := map[spec.Type]checker.Classification{}
	for _, typ := range []spec.Type{r, nr} {
		c, err := checker.Classify(typ, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[typ] = c
	}
	if reflect.DeepEqual(want[r], want[nr]) {
		t.Fatal("readability does not change this table's classification; the test is void")
	}
	for _, order := range [][]spec.Type{{r, nr}, {nr, r}} {
		e := New(Options{Workers: 2})
		for i, typ := range order {
			got, err := e.Classify(context.Background(), typ, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[typ]) {
				t.Fatalf("classification %d (readable=%v): engine %+v, checker %+v",
					i+1, types.Readable(typ), got, want[typ])
			}
		}
	}
}
