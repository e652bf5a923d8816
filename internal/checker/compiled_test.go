package checker

import (
	"context"
	"reflect"
	"testing"

	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// dualVerify returns a VerifyFunc that runs every candidate through
// both the interpreted verifier and the compiled core and fails the test
// on any disagreement over whether it passes. The core is driven
// directly: the scratch's per-team counts are filled from the table op
// index of each process's operation, and scratch.verify runs on them.
func dualVerify(t *testing.T, typ spec.Type, c *compile.Compiled, recording bool) VerifyFunc {
	t.Helper()
	interp := interpreted(recording)
	sc := new(scratch)
	sc.setTable(c)
	return func(_ spec.Type, w Witness) (Result, error) {
		r, err := interp(typ, w)
		if err != nil {
			t.Fatalf("%s %v: interpreted verifier: %v", typ.Name(), w, err)
		}
		q0, ok := c.StateIndex(w.Q0)
		if !ok {
			t.Fatalf("%s: initial state %q missing from the table", typ.Name(), w.Q0)
		}
		clear(sc.cnt[TeamA])
		clear(sc.cnt[TeamB])
		for i, op := range w.Ops {
			k, ok := c.OpIndex(op)
			if !ok {
				t.Fatalf("%s: op %q missing from the table", typ.Name(), op)
			}
			sc.cnt[w.Teams[i]][k]++
		}
		if got := sc.verify(c, q0, recording); got != r.OK {
			t.Fatalf("%s %v (recording=%v): interpreted OK=%v (%q), compiled OK=%v",
				typ.Name(), w, recording, r.OK, r.Reason, got)
		}
		return r, nil
	}
}

// TestCompiledVerifierMatchesInterpreted sweeps the full shard
// enumeration for every compilable zoo type at n = 2..3 and checks the
// compiled core and the interpreted verifier agree candidate by
// candidate, for both properties.
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
			all, err := shards(typ, n)
			if err != nil {
				t.Fatalf("%s n=%d: Shards: %v", typ.Name(), n, err)
			}
			for _, recording := range []bool{true, false} {
				verify := dualVerify(t, typ, c, recording)
				for _, s := range all {
					if _, err := searchShard(ctx, typ, s, verify); err != nil {
						t.Fatalf("%s n=%d: searchShard: %v", typ.Name(), n, err)
					}
				}
			}
		}
	}
}

// TestCompiledShardSearchMatchesInterpreted compares whole-shard
// searches as the engine runs them: for every type of the corpus at
// n = 2..3, one IndexSearch walks the ShardCursor's shards and, on each,
// must return the same witness as the interpreted search of the string
// shard Shards lists at that position, or nil on both sides, for both
// properties.
func TestCompiledShardSearchMatchesInterpreted(t *testing.T) {
	ctx := context.Background()
	searched := 0
	for _, typ := range shardCorpus(t) {
		for n := 2; n <= 3; n++ {
			c, err := compile.Compile(typ, n)
			if err != nil {
				continue
			}
			all, err := shards(typ, n)
			if err != nil {
				t.Fatalf("%s n=%d: Shards: %v", typ.Name(), n, err)
			}
			for _, recording := range []bool{true, false} {
				cur, err := NewShardCursor(c, n)
				if err != nil {
					t.Fatalf("%s n=%d: NewShardCursor: %v", typ.Name(), n, err)
				}
				s := NewIndexSearch(c, n, recording)
				for i := 0; cur.Next(); i++ {
					if i >= len(all) {
						t.Fatalf("%s n=%d: cursor yields more than %d shards", typ.Name(), n, len(all))
					}
					want, err := searchShard(ctx, typ, all[i], interpreted(recording))
					if err != nil {
						t.Fatalf("%s n=%d: searchShard: %v", typ.Name(), n, err)
					}
					got, err := s.Search(cur.Q0(), cur.ACounts(), never)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s n=%d shard %d %+v (recording=%v): compiled (%v, %v), interpreted %v",
							typ.Name(), n, i, all[i], recording, got, err, want)
					}
					searched++
				}
				s.Close()
			}
		}
	}
	if searched == 0 {
		t.Fatal("no shard was searched")
	}
}

// TestCompiledVerifierFallback drives the index search with shards the
// compiled core does not take, an empty team A and an empty team B;
// it must fall back to the interpreted search of the same string shard
// and agree with it rather than erroring out differently, and a stop
// that fires at once must abandon the fallback too.
func TestCompiledVerifierFallback(t *testing.T) {
	const n = 3
	cas := types.NewCAS()
	c, err := compile.Compile(cas, n)
	if err != nil {
		t.Fatal(err)
	}
	q0, ok := c.StateIndex(spec.State(types.Bottom))
	if !ok {
		t.Fatal("initial state missing from the table")
	}
	empty := make([]int, c.NumOps())
	full := make([]int, c.NumOps())
	full[0] = n
	for _, aCounts := range [][]int{empty, full} {
		if compiledShape(n, aCounts) {
			t.Fatalf("team-A counts %v take the compiled path", aCounts)
		}
		sh := shard{q0: c.StateAt(q0), ops: c.Alphabet(), aCounts: aCounts, n: n}
		for _, recording := range []bool{true, false} {
			want, errw := searchShard(context.Background(), cas, sh, interpreted(recording))
			s := NewIndexSearch(c, n, recording)
			got, errg := s.Search(q0, aCounts, never)
			if (errw == nil) != (errg == nil) || (errw != nil && errw.Error() != errg.Error()) || !reflect.DeepEqual(got, want) {
				t.Fatalf("fallback diverged on team-A counts %v (recording=%v): interpreted (%v, %v), compiled (%v, %v)",
					aCounts, recording, want, errw, got, errg)
			}
			if w, err := s.Search(q0, aCounts, func() bool { return true }); w != nil || err != nil {
				t.Fatalf("stopped fallback on team-A counts %v returned (%v, %v)", aCounts, w, err)
			}
			s.Close()
		}
	}
}

// TestCompiledShardSearchAllocs guards the search path's allocation
// budget over a whole table: with a warm searcher, walking every shard
// of a witness-free table allocates no more than creating the cursor
// does, however many shards and candidates it checks.
func TestCompiledShardSearchAllocs(t *testing.T) {
	const n = 3
	reg := types.NewRegister()
	c, err := compile.Compile(reg, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, recording := range []bool{true, false} {
		s := NewIndexSearch(c, n, recording)
		pass := func() {
			cur, err := NewShardCursor(c, n)
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next() {
				if w, _ := s.Search(cur.Q0(), cur.ACounts(), never); w != nil {
					t.Fatalf("%s n=%d (recording=%v) has a witness %v", reg.Name(), n, recording, w)
				}
			}
		}
		pass()
		cursorAllocs := testing.AllocsPerRun(20, func() {
			if _, err := NewShardCursor(c, n); err != nil {
				t.Fatal(err)
			}
		})
		allocs := testing.AllocsPerRun(20, pass)
		s.Close()
		if allocs > cursorAllocs {
			t.Errorf("%s n=%d (recording=%v): %v allocations per table pass, the cursor alone makes %v",
				reg.Name(), n, recording, allocs, cursorAllocs)
		}
	}
}

// witnessFreeShard returns the first zoo type and shard at n processes
// whose interpreted search finds no witness for the property among at
// least minCandidates candidates.
func witnessFreeShard(t *testing.T, n int, recording bool, minCandidates int) (spec.Type, *compile.Compiled, shard) {
	t.Helper()
	for _, typ := range types.Zoo() {
		c, err := compile.Compile(typ, n)
		if err != nil {
			continue
		}
		all, err := shards(typ, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range all {
			candidates := 0
			multisets(len(s.ops), s.teamBSize(), func([]int) bool {
				candidates++
				return true
			})
			if candidates < minCandidates {
				continue
			}
			if w, err := searchShard(context.Background(), typ, s, interpreted(recording)); err == nil && w == nil {
				return typ, c, s
			}
		}
	}
	t.Fatalf("no witness-free shard with %d candidates at n=%d", minCandidates, n)
	return nil, nil, shard{}
}
