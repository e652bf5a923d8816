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

// countingType counts the Apply calls made on the type it wraps. It
// hides every method of the wrapped type but spec.Type's, so the
// compiler walks it even when the wrapped type is compile.Dense.
type countingType struct {
	spec.Type
	applies *atomic.Int64
}

func (c countingType) Apply(s spec.State, op spec.Op) (spec.State, spec.Response, error) {
	c.applies.Add(1)
	return c.Type.Apply(s, op)
}

// countingOpsType is a countingType that keeps its type's spec.OpsForN.
type countingOpsType struct{ countingType }

func (c countingOpsType) OpsFor(n int) []spec.Op { return c.Type.(spec.OpsForN).OpsFor(n) }

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

// classifyApplies classifies typ twice on one engine and requires each
// Classify to make want Apply calls: the engine keeps no memo, so a
// repeat walks again.
func classifyApplies(t *testing.T, typ spec.Type, applies *atomic.Int64, limit int, want int64) {
	t.Helper()
	e := New(Options{Workers: 2})
	for round := range 2 {
		applies.Store(0)
		if _, err := e.Classify(context.Background(), typ, limit); err != nil {
			t.Fatal(err)
		}
		if got := applies.Load(); got != want {
			t.Fatalf("%s round %d: Classify made %d Apply calls, want %d", typ.Name(), round, got, want)
		}
	}
}

// TestClassifyWalksEachLevelOnce: a type without spec.OpsForN has one
// alphabet, so one table, at every level, and a cold Classify walks it
// once however many levels its scans reach; both property scans and
// every level's compiled search share the walk. A type with OpsForN
// has a table per level: Classify walks each level its scans reach
// exactly once, and no level above them, the limit's included.
func TestClassifyWalksEachLevelOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const limit = 4
	short, full := 0, 0
	for i := 0; i < 10; i++ {
		raw := atlas.Random(rng, 3, 2, 2)
		want, err := checker.Classify(raw, limit)
		if err != nil {
			t.Fatal(err)
		}
		if max(reached(want.Discerning), reached(want.Recording)) < limit {
			short++
		} else {
			full++
		}
		var applies atomic.Int64
		classifyApplies(t, countingType{raw, &applies}, &applies, limit, walk(t, raw, 2))
	}
	if short == 0 || full == 0 {
		t.Fatalf("%d types stopped below the limit and %d reached it; the sample must hold both", short, full)
	}

	// swap's scans stop below the limit, compare&swap's reach it; both
	// alphabets grow with n.
	for _, typ := range []spec.Type{types.NewSwap(), types.NewCAS()} {
		want, err := checker.Classify(typ, limit)
		if err != nil {
			t.Fatal(err)
		}
		top := max(reached(want.Discerning), reached(want.Recording))
		var levels int64
		for n := 2; n <= top; n++ {
			levels += walk(t, typ, n)
		}
		if walk(t, typ, 2) == walk(t, typ, 3) {
			t.Fatalf("%s: levels 2 and 3 walk alike; the test cannot tell one walk from one per level", typ.Name())
		}
		var applies atomic.Int64
		classifyApplies(t, countingOpsType{countingType{typ, &applies}}, &applies, limit, levels)
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
		c, err := checker.Classify(typ, 3)
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
