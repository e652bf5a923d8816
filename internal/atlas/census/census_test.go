package census

import (
	"bytes"
	"context"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/engine"
	"rcons/internal/types"
)

// smallOpts is a census fixture small enough for unit tests but big
// enough to exercise every stage (enumeration, sampling, mutation).
func smallOpts() Options {
	return Options{
		Bounds:        atlas.Bounds{States: 2, Ops: 2, Resps: 2},
		Random:        150,
		RandomBounds:  atlas.Bounds{States: 3, Ops: 2, Resps: 2},
		MutantsPerZoo: 1,
		Seed:          1,
		Limit:         3,
	}
}

// TestCensusDeterministicAcrossWorkers: the artifact must be
// byte-identical for 1 worker and many workers, and across reruns.
func TestCensusDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	var encs [][]byte
	for _, workers := range []int{1, 4, 4} {
		o := smallOpts()
		o.Workers = workers
		o.Engine = engine.New(engine.Options{Workers: workers})
		a, err := Run(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	if !bytes.Equal(encs[0], encs[1]) {
		t.Fatal("artifact differs between 1 and 4 workers")
	}
	if !bytes.Equal(encs[1], encs[2]) {
		t.Fatal("artifact differs across reruns with identical options")
	}
}

// TestCensusInvariants: a healthy small census verifies, covers all
// three sources, and its aggregates are consistent.
func TestCensusInvariants(t *testing.T) {
	a, err := Run(context.Background(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(false); err != nil {
		t.Fatal(err)
	}
	sources := map[string]int{}
	for _, r := range a.Rows {
		sources[r.Source]++
	}
	for _, s := range []string{"enum", "random", "mutant"} {
		if sources[s] == 0 {
			t.Errorf("no rows from source %q (got %v)", s, sources)
		}
	}
	if a.Generated != a.Types+a.Duplicates {
		t.Errorf("generated %d != types %d + duplicates %d", a.Generated, a.Types, a.Duplicates)
	}
	if a.Raw < a.Types {
		t.Errorf("raw %d < types %d", a.Raw, a.Types)
	}
	// Every observed rcons band has a gallery entry with a table.
	for band := range a.RconsBands {
		e, ok := a.Extremal.PerRconsBand[band]
		if !ok {
			// Mutant-only bands may lack dense tables only if the mutant
			// item was dropped — which cannot happen: every item carries
			// its table.
			t.Errorf("band %q has no gallery entry", band)
			continue
		}
		if len(e.Table) == 0 {
			t.Errorf("gallery entry for band %q has no table", band)
		}
	}
}

// TestCensusResume: resuming from a prior artifact must reproduce the
// fresh artifact byte-for-byte (rows are reused, not recomputed).
func TestCensusResume(t *testing.T) {
	ctx := context.Background()
	fresh, err := Run(ctx, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := smallOpts()
	o.Prior = fresh
	resumed, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := fresh.Encode()
	e2, _ := resumed.Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatal("resumed artifact differs from fresh artifact")
	}
	// A prior at a different limit must be ignored, not misused.
	o = smallOpts()
	o.Limit = 2
	o.Prior = fresh
	lower, err := Run(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if lower.Limit != 2 {
		t.Fatalf("limit not honoured: %d", lower.Limit)
	}
	for key, r := range lower.Rows {
		if r.Rcons.Hi != UnboundedHi && r.Rcons.Hi > 2 {
			t.Fatalf("row %s leaked a limit-3 band into a limit-2 census: %+v", key, r.Rcons)
		}
	}
}

// TestCensusVerifyCatches: Verify rejects broken artifacts.
func TestCensusVerifyCatches(t *testing.T) {
	a, err := Run(context.Background(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(false); err != nil {
		t.Fatal(err)
	}
	bad := *a
	bad.Types = a.Types + 1
	if bad.Verify(false) == nil {
		t.Error("Verify accepted a row-count mismatch")
	}
	bad = *a
	bad.Skipped = []string{"deadbeef"}
	if bad.Verify(false) == nil {
		t.Error("Verify accepted skipped rows")
	}
	bad = *a
	bad.Rows = nil
	if bad.Verify(false) == nil {
		t.Error("Verify accepted an empty artifact")
	}
}

// TestMutantKeyIgnoresNameAndSeesReadability: structurally identical
// mutants share a dedup key regardless of display name, and flipping
// only the readability flag — which changes the classification — yields
// a different key.
func TestMutantKeyIgnoresNameAndSeesReadability(t *testing.T) {
	base, err := atlas.Tabulate(types.NewSticky(), 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	a := *base
	a.TypeName = "sticky~m0"
	b := *base
	b.TypeName = "sticky~m1"
	ka, okA := mutantKey(&a, 3)
	kb, okB := mutantKey(&b, 3)
	if !okA || !okB {
		t.Fatal("sticky tabulation not fingerprintable")
	}
	if ka != kb {
		t.Fatalf("identical structures got distinct keys:\n%s\n%s", ka, kb)
	}
	nr := *base
	f := false
	nr.ReadableFlag = &f
	kn, ok := mutantKey(&nr, 3)
	if !ok {
		t.Fatal("non-readable variant not fingerprintable")
	}
	if kn == ka {
		t.Fatal("readability flip did not change the dedup key")
	}

	// census.Run also rejects unusable random bounds instead of panicking.
	_, err = Run(context.Background(), Options{
		Random:       1,
		RandomBounds: atlas.Bounds{States: 4},
		Limit:        2,
	})
	if err == nil {
		t.Fatal("Run accepted a partially-set RandomBounds")
	}
}

// TestCensusSaveLoad round-trips the artifact through disk.
func TestCensusSaveLoad(t *testing.T) {
	a, err := Run(context.Background(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/atlas.json"
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := a.Encode()
	e2, _ := b.Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatal("artifact changed through save/load")
	}
}

// BenchmarkGenerate runs the census's generation stage on the workload
// the census benchmark uses: the exhaustive 3-state, 2-op, 2-response
// block plus 300 seeded random tables.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	o := Options{Bounds: atlas.Bounds{States: 3, Ops: 2, Resps: 2}, Random: 300, RandomBounds: DefaultRandomBounds, Seed: 3}
	for b.Loop() {
		if _, _, _, err := generate(o); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOptions are the census benchmark's inputs: the 3-state, 2-op,
// 2-response block plus 300 seeded random tables at limit 3.
func benchOptions() Options {
	return Options{Bounds: atlas.Bounds{States: 3, Ops: 2, Resps: 2}, Random: 300, RandomBounds: DefaultRandomBounds, Seed: 3, Limit: 3}
}

// BenchmarkRun runs whole censuses on the census benchmark's inputs,
// each on a fresh engine.
func BenchmarkRun(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for b.Loop() {
		o.Engine = engine.New(engine.Options{})
		if _, err := Run(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClassifyAllocs pins the allocations of classifying the census
// benchmark's types on a warm worker, as TestCheckAllocs does for mc.
// The worker reuses its tables, cursor, ordered run, orbit set and
// shard scratch, so what remains is each found witness and each search's
// helper goroutine: on two worker slots, one per search. About 6.7 per
// type; a census used to make about 63.
func TestClassifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const perType = 10 // ceiling per classified type
	o := benchOptions()
	items, _, _, err := generate(o)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engine.New(engine.Options{Workers: 2}).Each(1, 1, func(w *engine.Worker, _ int) bool {
		pass := func() {
			for _, it := range items {
				if _, err := w.Classify(ctx, it.typ, o.Limit); err != nil {
					t.Fatal(err)
				}
			}
		}
		pass()
		if got := testing.AllocsPerRun(3, pass) / float64(len(items)); got > perType {
			t.Errorf("%.1f allocations per classified type over %d types, want ≤ %d", got, len(items), perType)
		} else {
			t.Logf("%.2f allocations per classified type over %d types", got, len(items))
		}
		return true
	})
}
