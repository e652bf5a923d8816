package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rcons/internal/checker"
	"rcons/internal/spec"
	"rcons/internal/store"
	"rcons/internal/types"
)

// fakePersist is an in-memory Persist double with call counters and a
// failure switch.
type fakePersist struct {
	mu      sync.Mutex
	entries map[string][]byte
	gets    int
	puts    int
	fail    bool
}

func newFakePersist() *fakePersist {
	return &fakePersist{entries: map[string][]byte{}}
}

func (f *fakePersist) Get(_ context.Context, kind, key string) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if f.fail {
		return nil, false, errors.New("injected store failure")
	}
	data, ok := f.entries[kind+"\x00"+key]
	return data, ok, nil
}

func (f *fakePersist) Put(_ context.Context, kind, key string, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.fail {
		return errors.New("injected store failure")
	}
	f.entries[kind+"\x00"+key] = append([]byte(nil), payload...)
	return nil
}

// TestPersistWriteThroughAndRestart: engine 1 computes and persists;
// engine 2 (a "restarted process" sharing the store) answers from disk
// without searching: engine 2 keeps no memo, so the stored entries are
// the only possible source of its answers, and its persist hits count
// them.
func TestPersistWriteThroughAndRestart(t *testing.T) {
	ctx := context.Background()
	p := newFakePersist()
	typ := types.NewSn(3)

	e1 := New(Options{Workers: 2, Persist: p})
	w1, err := e1.Search(ctx, typ, Recording, 3)
	if err != nil || w1 == nil {
		t.Fatalf("search: %v, %v", w1, err)
	}
	if p.puts == 0 {
		t.Fatal("computed result not written through")
	}
	if s := e1.Stats(); s.PersistMisses == 0 || s.PersistHits != 0 {
		t.Fatalf("first-run persist stats: %+v", s)
	}
	// Negative results persist too.
	if w, err := e1.Search(ctx, typ, Recording, 4); err != nil || w != nil {
		t.Fatalf("negative search: %v, %v", w, err)
	}

	e2 := New(Options{Workers: 2, Persist: p})
	w2, err := e2.Search(ctx, typ, Recording, 3)
	if err != nil || w2 == nil {
		t.Fatalf("restart search: %v, %v", w2, err)
	}
	if !reflect.DeepEqual(*w1, *w2) {
		t.Fatalf("persisted witness differs: %s vs %s", w1, w2)
	}
	if w, err := e2.Search(ctx, typ, Recording, 4); err != nil || w != nil {
		t.Fatalf("persisted negative result: %v, %v", w, err)
	}
	if s := e2.Stats(); s.PersistHits != 2 {
		t.Fatalf("restart persist stats: %+v", s)
	}
}

// TestPersistServesStoredResult plants a distinguishable witness in the
// store and checks the engine serves it verbatim — direct proof that a
// persist hit skips the search entirely.
func TestPersistServesStoredResult(t *testing.T) {
	ctx := context.Background()
	p := newFakePersist()
	typ := types.NewSn(3)
	fp, ok := Fingerprint(typ, 3)
	if !ok {
		t.Fatal("S_3 not fingerprintable")
	}
	sentinel := persistedSearch{Found: true, Witness: &persistedWitness{
		Q0: "sentinel-state", Teams: []int{0, 1, 0}, Ops: []string{"a", "b", "c"},
	}}
	data, err := json.Marshal(sentinel)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Put(context.Background(), persistKind, persistKey(fp, Recording, 3), data); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2, Persist: p})
	w, err := e.Search(ctx, typ, Recording, 3)
	if err != nil || w == nil {
		t.Fatalf("search: %v, %v", w, err)
	}
	if string(w.Q0) != "sentinel-state" {
		t.Fatalf("engine recomputed instead of serving the store: %s", w)
	}
}

// TestPersistFailureIsSoft: a broken store degrades to plain
// computation, counted but never surfaced.
func TestPersistFailureIsSoft(t *testing.T) {
	ctx := context.Background()
	p := newFakePersist()
	p.fail = true
	e := New(Options{Workers: 2, Persist: p})
	w, err := e.Search(ctx, types.NewSn(3), Recording, 3)
	if err != nil || w == nil {
		t.Fatalf("search with broken store: %v, %v", w, err)
	}
	if s := e.Stats(); s.PersistErrors == 0 {
		t.Fatalf("store failures uncounted: %+v", s)
	}
}

// TestPersistCorruptEntryIsMiss: an undecodable stored entry falls back
// to computation and is healed by the write-through.
func TestPersistCorruptEntryIsMiss(t *testing.T) {
	ctx := context.Background()
	p := newFakePersist()
	typ := types.NewSn(3)
	fp, _ := Fingerprint(typ, 3)
	key := persistKey(fp, Recording, 3)
	if err := p.Put(context.Background(), persistKind, key, []byte(`{"found":true,"witness":null}`)); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 2, Persist: p})
	w, err := e.Search(ctx, typ, Recording, 3)
	if err != nil || w == nil {
		t.Fatalf("search over corrupt entry: %v, %v", w, err)
	}
	if string(w.Q0) == "" {
		t.Fatal("empty witness served")
	}
	healed, ok := p.entries[persistKind+"\x00"+key]
	if !ok {
		t.Fatal("write-through did not heal the entry")
	}
	if r, ok := decodeSearchResult(healed, 3); !ok || r == nil {
		t.Fatalf("healed entry undecodable: %s", healed)
	}
}

// namedPersist adapts fakePersist to store.Backend for chain tests.
type namedPersist struct{ *fakePersist }

func (namedPersist) Name() string { return "fake" }

// TestPersistChainReadThrough wires the engine to a real store.Chain —
// a cold local store, a failing middle tier, a warm far store — and
// proves the far hit is served with zero search work (PersistMisses
// stays 0), the failing tier is absorbed, and write-back healing makes
// the local tier warm for the next process.
func TestPersistChainReadThrough(t *testing.T) {
	ctx := context.Background()
	typ := types.NewSn(3)

	warm, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(Options{Workers: 2, Persist: warm})
	w1, err := e1.Search(ctx, typ, Recording, 3)
	if err != nil || w1 == nil {
		t.Fatalf("warming search: %v, %v", w1, err)
	}

	local, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flaky := newFakePersist()
	flaky.fail = true
	chain := store.NewChain(local, namedPersist{flaky}, warm)

	e2 := New(Options{Workers: 2, Persist: chain})
	w2, err := e2.Search(ctx, typ, Recording, 3)
	if err != nil || w2 == nil {
		t.Fatalf("chained search: %v, %v", w2, err)
	}
	if !reflect.DeepEqual(*w1, *w2) {
		t.Fatalf("chained witness differs: %s vs %s", w1, w2)
	}
	s := e2.Stats()
	if s.PersistHits != 1 || s.PersistMisses != 0 {
		t.Fatalf("chain hit did not skip the search: %+v", s)
	}
	if st := local.Stats(); st.Puts != 1 {
		t.Fatalf("write-back did not heal the local tier: %+v", st)
	}
	// A third process over just the healed local tier hits immediately.
	e3 := New(Options{Workers: 2, Persist: local})
	if w3, err := e3.Search(ctx, typ, Recording, 3); err != nil || w3 == nil {
		t.Fatalf("healed-tier search: %v, %v", w3, err)
	}
	if s := e3.Stats(); s.PersistHits != 1 || s.PersistMisses != 0 {
		t.Fatalf("healed tier did not serve: %+v", s)
	}
}

// TestSearchResultCodecRoundTrip exercises the stored-JSON codec over
// real search outcomes for the whole zoo at a couple of levels.
func TestSearchResultCodecRoundTrip(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 4})
	for _, typ := range types.Zoo() {
		for n := 2; n <= 3; n++ {
			for _, prop := range []Property{Recording, Discerning} {
				w, err := e.Search(ctx, typ, prop, n)
				if err != nil {
					t.Fatalf("%s %s n=%d: %v", typ.Name(), prop, n, err)
				}
				data, err := encodeSearchResult(w)
				if err != nil {
					t.Fatal(err)
				}
				back, ok := decodeSearchResult(data, n)
				if !ok {
					t.Fatalf("%s %s n=%d: round-trip decode failed: %s", typ.Name(), prop, n, data)
				}
				if !reflect.DeepEqual(back, w) {
					t.Fatalf("%s %s n=%d: round trip changed the result:\n%+v\nvs\n%+v",
						typ.Name(), prop, n, back, w)
				}
			}
		}
	}
}

func TestDecodeSearchResultRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`not json`,
		`{"found":true}`, // found without witness
		`{"found":true,"witness":{"teams":[0],"ops":["a","b"]}}`,             // length mismatch
		`{"found":true,"witness":{"teams":[0,1,0],"ops":["a","b","a"]}}`,     // not the key's n
		`{"found":true,"witness":{"teams":[0,2],"ops":["a","b"]}}`,           // not a team
		`{"found":true,"witness":{"teams":[-1,1],"ops":["a","b"]}}`,          // not a team
		`{"found":true,"witness":{"q0":"s","teams":[0,1],"ops":["a","b"]}}x`, // trailing data
	} {
		if _, ok := decodeSearchResult([]byte(bad), 2); ok {
			t.Errorf("decoded garbage %s", bad)
		}
	}
	if w, ok := decodeSearchResult([]byte(`{"found":true,"witness":{"q0":"s","teams":[0,1],"ops":["a","b"]}}`), 2); !ok || w == nil {
		t.Error("a witness of 2 processes failed to decode at n=2")
	}
	if w, ok := decodeSearchResult([]byte(`{"found":false}`), 2); !ok || w != nil {
		t.Error("negative result failed to decode")
	}
}

// TestPersistKeysAreDistinct guards the key schema: property, level and
// type must all separate.
func TestPersistKeysAreDistinct(t *testing.T) {
	fpA, _ := Fingerprint(types.NewSn(3), 3)
	fpB, _ := Fingerprint(types.NewSn(4), 3)
	keys := map[string]bool{}
	for _, fp := range []string{fpA, fpB} {
		for _, prop := range []Property{Recording, Discerning} {
			for n := 2; n <= 3; n++ {
				keys[persistKey(fp, prop, n)] = true
			}
		}
	}
	if len(keys) != 8 {
		t.Fatalf("key schema collides: %d distinct keys, want 8", len(keys))
	}
	_ = fmt.Sprintf("%v", keys)
}

// lyingPersist answers every search read with a checksummed-looking
// entry that bad builds from the key's n, and keeps no writes: a store
// or peer holding misfiled or malformed witnesses.
type lyingPersist struct {
	mu   sync.Mutex
	bad  func(n int) string
	gets int
}

func (l *lyingPersist) Get(_ context.Context, kind, key string) ([]byte, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gets++
	n, err := strconv.Atoi(key[strings.LastIndexByte(key, '/')+1:])
	if err != nil {
		return nil, false, err
	}
	return []byte(l.bad(n)), true, nil
}

func (l *lyingPersist) Put(context.Context, string, string, []byte) error { return nil }

// TestPersistRejectsMalformedWitness: a stored witness of the wrong
// length for its key, with a label that is no team, or a found:true
// without one is a miss. The engine recomputes, so the classification
// is the one an engine without a store derives.
func TestPersistRejectsMalformedWitness(t *testing.T) {
	ctx := context.Background()
	typ := types.NewSn(3)
	want, err := New(Options{Workers: 2}).Classify(ctx, typ, 4)
	if err != nil {
		t.Fatal(err)
	}
	witness := func(teams []int) string {
		ops := make([]string, len(teams))
		for i := range ops {
			ops[i] = "op"
		}
		data, err := json.Marshal(persistedSearch{Found: true, Witness: &persistedWitness{Q0: "q", Teams: teams, Ops: ops}})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for name, bad := range map[string]func(n int) string{
		"one-process-too-many":  func(n int) string { return witness(append(make([]int, n), 1)) },
		"one-process-too-few":   func(n int) string { return witness(append(make([]int, n-2), 1)) },
		"not-a-team":            func(n int) string { return witness(append(make([]int, n-1), 2)) },
		"found-without-witness": func(int) string { return `{"found":true}` },
	} {
		t.Run(name, func(t *testing.T) {
			p := &lyingPersist{bad: bad}
			e := New(Options{Workers: 2, Persist: p})
			got, err := e.Classify(ctx, typ, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("classification changed:\n%+v\nwant\n%+v", got, want)
			}
			s := e.Stats()
			if s.PersistHits != 0 || s.PersistMisses == 0 || s.PersistMisses != int64(p.gets) {
				t.Fatalf("persist stats %+v after %d reads, want every read a miss", s, p.gets)
			}
		})
	}
}

// BenchmarkSearchResultDecode is what a persist hit pays to read a
// stored witness of 3 processes.
func BenchmarkSearchResultDecode(b *testing.B) {
	data, err := encodeSearchResult(&checker.Witness{Q0: "s1", Teams: []int{0, 1, 0}, Ops: []spec.Op{"o0", "o1", "o0"}})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if w, ok := decodeSearchResult(data, 3); !ok || w == nil {
			b.Fatal("decode failed")
		}
	}
}
