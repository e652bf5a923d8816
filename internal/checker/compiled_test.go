package checker

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// dualVerify returns a VerifyFunc that runs every candidate through
// both the interpreted verifier and the compiled one and fails the test
// on any OK disagreement. Reasons are not compared: fail messages
// legitimately differ in wording between the two paths.
func dualVerify(t *testing.T, typ spec.Type, c *compile.Compiled, recording bool) VerifyFunc {
	t.Helper()
	interp, comp := VerifyRecording, CompiledRecording(c)
	if !recording {
		interp, comp = VerifyDiscerning, CompiledDiscerning(c)
	}
	return func(_ spec.Type, w Witness) (Result, error) {
		ri, erri := interp(typ, w)
		rc, errc := comp(typ, w)
		if (erri == nil) != (errc == nil) {
			t.Fatalf("%s %v: interpreted err %v, compiled err %v", typ.Name(), w, erri, errc)
		}
		if erri == nil && ri.OK != rc.OK {
			t.Fatalf("%s %v (recording=%v): interpreted OK=%v, compiled OK=%v (%q vs %q)",
				typ.Name(), w, recording, ri.OK, rc.OK, ri.Reason, rc.Reason)
		}
		return rc, errc
	}
}

// TestCompiledVerifierMatchesInterpreted sweeps the full shard
// enumeration for every compilable zoo type at n = 2..3 and checks the
// compiled and interpreted verifiers agree candidate by candidate, for
// both properties, including the returned witnesses.
func TestCompiledVerifierMatchesInterpreted(t *testing.T) {
	maxN := 3
	if testing.Short() {
		maxN = 2
	}
	ctx := context.Background()
	for _, typ := range types.Zoo() {
		for n := 2; n <= maxN; n++ {
			c, err := compile.Compile(typ, n)
			if err != nil {
				continue
			}
			shards, err := Shards(typ, n, nil)
			if err != nil {
				t.Fatalf("%s n=%d: Shards: %v", typ.Name(), n, err)
			}
			for _, recording := range []bool{true, false} {
				verify := dualVerify(t, typ, c, recording)
				for _, s := range shards {
					if _, err := SearchShard(ctx, typ, s, verify); err != nil {
						t.Fatalf("%s n=%d: SearchShard: %v", typ.Name(), n, err)
					}
				}
			}
		}
	}
}

// TestCompiledVerifierFallback drives the compiled verifier with a
// witness whose operation is outside the compiled alphabet; it must
// fall back to the interpreted path and agree with it rather than
// erroring out.
func TestCompiledVerifierFallback(t *testing.T) {
	cas := types.NewCAS()
	c, err := compile.Compile(cas, 2)
	if err != nil {
		t.Fatal(err)
	}
	// "cas(⊥,zz)" is a valid CAS op but not in CandidateOps(cas, 2),
	// so it is absent from the compiled table.
	w := Witness{
		Q0:    spec.State(types.Bottom),
		Teams: []int{TeamA, TeamB},
		Ops:   []spec.Op{spec.FormatOp("cas", types.Bottom, "zz"), spec.FormatOp("cas", types.Bottom, "v0")},
	}
	ri, erri := VerifyRecording(cas, w)
	rc, errc := CompiledRecording(c)(cas, w)
	if (erri == nil) != (errc == nil) || (erri == nil && ri.OK != rc.OK) {
		t.Fatalf("fallback diverged: interpreted (%+v, %v), compiled (%+v, %v)", ri, erri, rc, errc)
	}
	// The shard search falls back the same way for a shard whose
	// alphabet contains that op.
	s := Shard{Q0: w.Q0, Ops: w.Ops, ACounts: []int{1, 0}, N: 3}
	for _, recording := range []bool{true, false} {
		want, errw := SearchShard(context.Background(), cas, s, interpreted(recording))
		got, errg := SearchShardCompiled(context.Background(), c, s, recording)
		if errw != nil || errg != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("shard fallback diverged (recording=%v): interpreted (%v, %v), compiled (%v, %v)",
				recording, want, errw, got, errg)
		}
	}
}

// reversedShard returns s with its operation alphabet (and team-A
// counts) in reverse order, so shard positions and the alphabet's
// sorted slots disagree.
func reversedShard(s Shard) Shard {
	s.Ops = slices.Clone(s.Ops)
	s.ACounts = slices.Clone(s.ACounts)
	slices.Reverse(s.Ops)
	slices.Reverse(s.ACounts)
	return s
}

// TestCompiledShardSearchMatchesInterpreted compares whole-shard
// searches: for every compilable zoo type and every enumerated table
// with ≤2 states, ≤2 ops and ≤2 responses, at n = 2..3, the compiled
// shard search must return the same witness as the interpreted one, or
// nil on both sides, on every shard (also with its alphabet reversed)
// for both properties.
func TestCompiledShardSearchMatchesInterpreted(t *testing.T) {
	typs := types.Zoo()
	if _, _, err := atlas.Enumerate(atlas.Bounds{States: 2, Ops: 2, Resps: 2}, func(_ string, tb *atlas.Table) bool {
		typs = append(typs, tb)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	searched := 0
	for _, typ := range typs {
		for n := 2; n <= 3; n++ {
			c, err := compile.Compile(typ, n)
			if err != nil {
				continue
			}
			shards, err := Shards(typ, n, nil)
			if err != nil {
				t.Fatalf("%s n=%d: Shards: %v", typ.Name(), n, err)
			}
			for _, s := range shards {
				for _, sh := range []Shard{s, reversedShard(s)} {
					for _, recording := range []bool{true, false} {
						want, err := SearchShard(ctx, typ, sh, interpreted(recording))
						if err != nil {
							t.Fatalf("%s n=%d: SearchShard: %v", typ.Name(), n, err)
						}
						got, err := SearchShardCompiled(ctx, c, sh, recording)
						if err != nil {
							t.Fatalf("%s n=%d: SearchShardCompiled: %v", typ.Name(), n, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s n=%d shard %+v (recording=%v): compiled %v, interpreted %v",
								typ.Name(), n, sh, recording, got, want)
						}
						searched++
					}
				}
			}
		}
	}
	if searched == 0 {
		t.Fatal("no shard was searched")
	}
}

// TestCompiledShardSearchAllocs guards the search path's allocation
// budget: once the pooled scratch is warm, searching a shard with no
// witness allocates nothing, however many candidates it checks.
func TestCompiledShardSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under the race detector")
	}
	const n = 3
	for _, recording := range []bool{true, false} {
		typ, c, s := witnessFreeShard(t, n, recording, 3)
		if _, err := SearchShardCompiled(context.Background(), c, s, recording); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if w, _ := SearchShardCompiled(context.Background(), c, s, recording); w != nil {
				t.Fatalf("%s shard %+v has a witness", typ.Name(), s)
			}
		})
		if allocs != 0 {
			t.Errorf("%s shard %+v (recording=%v): %v allocations per search, want 0",
				typ.Name(), s, recording, allocs)
		}
	}
}

// witnessFreeShard returns the first zoo type and shard at n processes
// whose interpreted search finds no witness for the property among at
// least minCandidates candidates.
func witnessFreeShard(t *testing.T, n int, recording bool, minCandidates int) (spec.Type, *compile.Compiled, Shard) {
	t.Helper()
	for _, typ := range types.Zoo() {
		c, err := compile.Compile(typ, n)
		if err != nil {
			continue
		}
		shards, err := Shards(typ, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shards {
			candidates := 0
			multisets(len(s.Ops), s.teamBSize(), func([]int) bool {
				candidates++
				return true
			})
			if candidates < minCandidates {
				continue
			}
			if w, err := SearchShard(context.Background(), typ, s, interpreted(recording)); err == nil && w == nil {
				return typ, c, s
			}
		}
	}
	t.Fatalf("no witness-free shard with %d candidates at n=%d", minCandidates, n)
	return nil, nil, Shard{}
}
