package engine

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
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
		want, err := checker.Classify(typ, limit)
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
			for p, seq := range map[Property]func(spec.Type, int) (*checker.Witness, error){
				Recording:  checker.SearchRecording,
				Discerning: checker.SearchDiscerning,
			} {
				want, err := seq(typ, n)
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

// TestFingerprintIdentity checks that the store key identifies the
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

// levelPersist is a Persist that stores nothing and records the key of
// every Get: with it attached, each search the engine computes reads
// the store once first, under its fingerprint/property/level key.
type levelPersist struct {
	mu   sync.Mutex
	keys []string
}

func (p *levelPersist) Get(_ context.Context, _, key string) ([]byte, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.keys = append(p.keys, key)
	return nil, false, nil
}

func (p *levelPersist) Put(context.Context, string, string, []byte) error { return nil }

// levels returns the levels at which property prop was read, in order.
func (p *levelPersist) levels(t *testing.T, prop Property) []int {
	t.Helper()
	var out []int
	for _, key := range p.keys {
		parts := strings.Split(key, "/")
		if parts[len(parts)-2] != prop.String() {
			continue
		}
		n, err := strconv.Atoi(parts[len(parts)-1])
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		out = append(out, n)
	}
	return out
}

// TestClassifySkipsRecordingAboveDiscerning: an n-recording type is
// n-discerning (Observation 5 of the paper), so Classify searches the
// recording property only at the levels up to disc.Max. On types whose
// two maxima are equal and below the limit, it searches recording at
// every level from 2 to disc.Max and at none above, reads the store at
// no level above, and still equals checker.Classify.
func TestClassifySkipsRecordingAboveDiscerning(t *testing.T) {
	const limit = 5
	for _, typ := range []spec.Type{types.NewRegister(), types.NewSn(2), types.NewSn(3)} {
		want, err := checker.Classify(typ, limit)
		if err != nil {
			t.Fatal(err)
		}
		disc := want.Discerning.Max
		if want.Recording.Max != disc || want.Discerning.AtLimit {
			t.Fatalf("%s: recording max %d, discerning %v; want equal maxima below %d",
				typ.Name(), want.Recording.Max, want.Discerning, limit)
		}
		p := &levelPersist{}
		got, err := New(Options{Workers: 2, Persist: p}).Classify(context.Background(), typ, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: engine classification differs\n got: %+v\nwant: %+v", typ.Name(), got, want)
		}
		var wantLevels []int
		for n := 2; n <= disc; n++ {
			wantLevels = append(wantLevels, n)
		}
		if got := p.levels(t, Recording); !slices.Equal(got, wantLevels) {
			t.Fatalf("%s: recording searched at levels %v, want %v (discerning max %d)", typ.Name(), got, wantLevels, disc)
		}
		if got := p.levels(t, Discerning); !slices.Equal(got, append(wantLevels, disc+1)) {
			t.Fatalf("%s: discerning searched at levels %v", typ.Name(), got)
		}
	}
}
