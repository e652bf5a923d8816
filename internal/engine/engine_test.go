package engine

import (
	"context"
	"reflect"
	"testing"

	"rcons/internal/checker"
	"rcons/internal/spec"
	"rcons/internal/types"
)

func newTestEngine() *Engine {
	// More workers than CPUs on purpose: determinism must not depend on
	// the pool width.
	return New(Options{Workers: 8})
}

// TestEngineMatchesSequentialZoo is the acceptance gate for the sharded
// search: for every type in the zoo, the engine's classification must be
// deeply identical — bands, levels, AtLimit flags and witnesses — to the
// sequential checker.Classify.
func TestEngineMatchesSequentialZoo(t *testing.T) {
	e := newTestEngine()
	ctx := context.Background()
	limit := 4
	if !testing.Short() {
		limit = 5
	}
	for _, typ := range types.Zoo() {
		want, err := checker.Classify(typ, limit, nil)
		if err != nil {
			t.Fatalf("%s: sequential: %v", typ.Name(), err)
		}
		got, err := e.Classify(ctx, typ, limit)
		if err != nil {
			t.Fatalf("%s: engine: %v", typ.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine classification differs\n got: %+v\nwant: %+v", typ.Name(), got, want)
		}
	}
}

// TestSearchMatchesSequentialWitness property-tests shard-partition
// completeness: across the zoo, both properties, and several levels, the
// parallel search finds a witness iff the sequential search does — and
// the identical witness, since the pool preserves enumeration order.
func TestSearchMatchesSequentialWitness(t *testing.T) {
	e := newTestEngine()
	ctx := context.Background()
	for _, typ := range types.Zoo() {
		for n := 2; n <= 4; n++ {
			for p, seq := range map[Property]func(spec.Type, int, *checker.SearchOptions) (*checker.Witness, error){
				Recording:  checker.SearchRecording,
				Discerning: checker.SearchDiscerning,
			} {
				want, err := seq(typ, n, nil)
				if err != nil {
					t.Fatalf("%s %s n=%d: sequential: %v", typ.Name(), p, n, err)
				}
				got, err := e.Search(ctx, typ, p, n)
				if err != nil {
					t.Fatalf("%s %s n=%d: engine: %v", typ.Name(), p, n, err)
				}
				if (got == nil) != (want == nil) {
					t.Fatalf("%s %s n=%d: engine found=%v, sequential found=%v",
						typ.Name(), p, n, got != nil, want != nil)
				}
				if got != nil && !reflect.DeepEqual(*got, *want) {
					t.Errorf("%s %s n=%d: witness differs\n got: %s\nwant: %s",
						typ.Name(), p, n, got, want)
				}
			}
		}
	}
}

// TestCacheHitMiss: the class memo answers a repeated Classify with an
// equal classification, memoizes negative bands (S_3's recording scan
// at limit 4 stops at 3 without a 4-witness), keys on the limit, and
// isolates its entries from caller mutation.
func TestCacheHitMiss(t *testing.T) {
	e := New(Options{Workers: 2})
	ctx := context.Background()
	typ := types.NewSn(3)

	if s := e.Stats(); s != (CacheStats{}) {
		t.Fatalf("fresh engine has stats %+v", s)
	}
	c1, err := e.Classify(ctx, typ, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Recording.Max != 3 || c1.Recording.AtLimit || c1.Recording.Witness == nil {
		t.Fatalf("S_3 at limit 4: recording %+v, want a 3-witness and no 4-witness", c1.Recording)
	}
	if s := e.Stats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after miss: %+v", s)
	}
	c2, err := e.Classify(ctx, typ, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after hit: %+v", s)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("memo returned a different classification:\n%+v\nvs\n%+v", c1, c2)
	}

	// Memoized entries must be isolated from caller mutation.
	c1.Recording.Witness.Ops[0] = "corrupted"
	c3, err := e.Classify(ctx, typ, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c2, c3) {
		t.Fatal("mutating a returned witness corrupted the memo")
	}

	// Distinct limits use distinct keys.
	if _, err := e.Classify(ctx, typ, 3); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 2 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("limit should not share memo keys: %+v", s)
	}
}

// TestCacheDisabled: CacheSize -1 memoizes nothing and counts nothing.
func TestCacheDisabled(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: -1})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := e.Classify(ctx, types.NewSn(2), 3); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s != (CacheStats{}) {
		t.Fatalf("disabled cache reported %+v", s)
	}
}

// TestCacheEviction: at CacheSize 1 a second classification evicts the
// first, which is then recomputed (a miss) to the same result.
func TestCacheEviction(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: 1})
	ctx := context.Background()
	first, err := e.Classify(ctx, types.NewSn(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Classify(ctx, types.NewSn(3), 3); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("eviction stats: %+v", s)
	}
	again, err := e.Classify(ctx, types.NewSn(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Hits != 0 || s.Misses != 3 {
		t.Fatalf("post-eviction stats: %+v", s)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("recomputed classification differs:\n%+v\nvs\n%+v", first, again)
	}
}

// TestMemoStatsCountClassifications: every memo field of CacheStats
// describes the one class memo — one lookup per Classify and one entry
// per distinct classification, however many levels each one searched.
func TestMemoStatsCountClassifications(t *testing.T) {
	ctx := context.Background()
	calls := []struct {
		typ   spec.Type
		limit int
	}{{types.NewSn(2), 4}, {types.NewSn(3), 3}, {types.NewSn(3), 4}}
	k := int64(len(calls))
	const r = 2

	e := New(Options{Workers: 2})
	for _, c := range calls {
		if _, err := e.Classify(ctx, c.typ, c.limit); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Misses != k || s.Entries != int(k) || s.Hits != 0 || s.Evictions != 0 {
		t.Fatalf("after %d distinct classifications: %+v", k, s)
	}
	for range r {
		if _, err := e.Classify(ctx, calls[0].typ, calls[0].limit); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Hits != r || s.Misses != k || s.Entries != int(k) {
		t.Fatalf("after %d repeats: %+v", r, s)
	}

	small := New(Options{Workers: 2, CacheSize: 1})
	for _, c := range calls {
		if _, err := small.Classify(ctx, c.typ, c.limit); err != nil {
			t.Fatal(err)
		}
	}
	if s := small.Stats(); s.Evictions != k-1 || s.Entries != 1 || s.Misses != k {
		t.Fatalf("CacheSize 1 after %d classifications: %+v", k, s)
	}
}

// TestFingerprintIdentity checks that the cache key identifies the
// transition table, not the Go value: structurally equal types share a
// fingerprint, and any semantic difference separates them.
func TestFingerprintIdentity(t *testing.T) {
	a, ok := Fingerprint(types.NewSn(3), 3)
	if !ok {
		t.Fatal("S_3 not fingerprintable")
	}
	b, ok := Fingerprint(types.NewSn(3), 3)
	if !ok || a != b {
		t.Fatalf("equal types, unequal fingerprints: %s vs %s", a, b)
	}
	c, _ := Fingerprint(types.NewSn(4), 3)
	if a == c {
		t.Fatal("S_3 and S_4 share a fingerprint")
	}
	d, _ := Fingerprint(types.NewSn(3), 4)
	if a == d {
		t.Fatal("fingerprint ignores the level's op alphabet")
	}

	table := func(resp string) *types.Custom {
		tbl := &types.Custom{
			TypeName: "probe",
			Initial:  []string{"q0"},
			Transitions: map[string]map[string]types.CustomEdge{
				"q0": {"opA": {Next: "q1", Resp: "a"}, "opB": {Next: "q1", Resp: resp}},
				"q1": {"opA": {Next: "q1", Resp: "a"}, "opB": {Next: "q1", Resp: "a"}},
			},
		}
		if err := tbl.Validate(); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	f1, ok := Fingerprint(table("b"), 2)
	if !ok {
		t.Fatal("custom type not fingerprintable")
	}
	f2, _ := Fingerprint(table("b"), 2)
	if f1 != f2 {
		t.Fatal("identical custom tables, different fingerprints")
	}
	f3, _ := Fingerprint(table("B"), 2)
	if f1 == f3 {
		t.Fatal("fingerprint ignores responses")
	}
}

func TestScanCoversZoo(t *testing.T) {
	e := newTestEngine()
	cs, err := e.Scan(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	zoo := types.Zoo()
	if len(cs) != len(zoo) {
		t.Fatalf("Scan returned %d results for %d types", len(cs), len(zoo))
	}
	for i, c := range cs {
		if c.TypeName != zoo[i].Name() {
			t.Errorf("result %d is %q, want %q (order must be preserved)", i, c.TypeName, zoo[i].Name())
		}
	}
}

func TestContextCancellation(t *testing.T) {
	e := newTestEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Search(ctx, types.NewTn(5), Recording, 4); err == nil {
		t.Fatal("cancelled context accepted")
	}
	if _, err := e.ClassifyAll(ctx, types.Zoo(), 4); err == nil {
		t.Fatal("cancelled batch accepted")
	}
}

func TestEngineErrors(t *testing.T) {
	e := newTestEngine()
	ctx := context.Background()
	if _, err := e.Search(ctx, types.NewSn(2), Recording, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := e.Classify(ctx, types.NewSn(2), 1); err == nil {
		t.Fatal("limit=1 accepted")
	}
	if _, err := e.Search(ctx, types.NewSn(2), Property(99), 2); err == nil {
		t.Fatal("bogus property accepted")
	}
}

func TestParseProperty(t *testing.T) {
	for s, want := range map[string]Property{
		"recording": Recording, "rec": Recording,
		"discerning": Discerning, "disc": Discerning,
	} {
		got, err := ParseProperty(s)
		if err != nil || got != want {
			t.Errorf("ParseProperty(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseProperty("bogus"); err == nil {
		t.Error("bogus property parsed")
	}
	if Recording.String() != "recording" || Discerning.String() != "discerning" {
		t.Error("Property.String mismatch")
	}
}
