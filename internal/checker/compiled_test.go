package checker

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// TestCompiledVerifierMatchesInterpreted sweeps every candidate of
// every compilable zoo type at n = 2..3 and checks that the compiled
// core's kernels and the interpreted verifier agree candidate by
// candidate, for both properties (kernelParity). The queue, stack and
// peek-queue tables exceed a mask word, so their candidates run the DFS
// alone.
func TestCompiledVerifierMatchesInterpreted(t *testing.T) {
	maxN := 3
	if testing.Short() {
		maxN = 2
	}
	sc := new(scratch)
	for _, typ := range types.Zoo() {
		for n := 2; n <= maxN; n++ {
			c, err := compile.Compile(typ, n)
			if err != nil {
				continue
			}
			kernelParity(t, typ, c, n, sc)
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

// kernelParity runs every candidate of c among n processes through the
// compiled core's kernels and the interpreted verifier, for both
// properties: the word-mask kernel (when c fits words), the explicit
// DFS and scratch.verify's own choice must all agree with the
// interpreted verdict. It returns the number of candidates checked.
func kernelParity(t *testing.T, typ spec.Type, c *compile.Compiled, n int, sc *scratch) int {
	t.Helper()
	cur, err := NewShardCursor(c, n)
	if err != nil {
		t.Fatalf("%s n=%d: NewShardCursor: %v", typ.Name(), n, err)
	}
	sc.setTable(c)
	checked := 0
	for cur.Next() {
		q0 := cur.Q0()
		copy(sc.cnt[TeamA], cur.ACounts())
		b := sc.cnt[TeamB]
		clear(b)
		b[0] = n
		for _, a := range sc.cnt[TeamA] {
			b[0] -= a
		}
		for {
			w := witnessFromCounts(c.StateAt(q0), c.Alphabet(), sc.cnt[TeamA], b)
			for _, recording := range []bool{true, false} {
				r, err := interpreted(recording)(typ, w)
				if err != nil {
					t.Fatalf("%s %v: interpreted verifier: %v", typ.Name(), w, err)
				}
				dfs, masks := sc.recording, sc.recordingMasks
				if !recording {
					dfs, masks = sc.discerning, sc.discerningMasks
				}
				sc.layout(-1)
				dfsOK := dfs(c, q0)
				masksOK := dfsOK
				if sc.words {
					sc.layout(-1)
					masksOK = masks(c, q0)
				}
				chosen := sc.verify(c, q0, recording)
				if dfsOK != r.OK || masksOK != r.OK || chosen != r.OK {
					t.Fatalf("%s n=%d %v (recording=%v): interpreted %v (%q), DFS %v, masks %v, verify %v",
						typ.Name(), n, w, recording, r.OK, r.Reason, dfsOK, masksOK, chosen)
				}
			}
			checked++
			if !nextMultiset(b) {
				break
			}
		}
	}
	return checked
}

// TestKernelParity checks the word-mask kernel, the explicit DFS and
// the interpreted verifier candidate by candidate at n = 2..4: on the
// 3×2×2 atlas block, on 2,000 seeded random tables up to 4×3×3, on
// fetch&add(mod=8), whose 8 states × 8 responses fill the mask word
// exactly, and on a 6-state, 11-response table just past it, which
// must take the DFS. The block and the random tables run as two
// parallel subtests.
func TestKernelParity(t *testing.T) {
	tables := 2000
	if testing.Short() {
		tables = 200
	}
	var block []spec.Type
	if _, _, err := atlas.Enumerate(atlas.Bounds{States: 3, Ops: 2, Resps: 2}, func(_ string, tb *atlas.Table) bool {
		block = append(block, tb)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	next, resp := make([]uint8, 12), make([]uint8, 12)
	for i := range next {
		next[i], resp[i] = uint8((5*i+1)%6), uint8(i%11)
	}
	wide, err := atlas.NewTable(6, 2, 11, next, resp)
	if err != nil {
		t.Fatal(err)
	}
	var random []spec.Type
	rng := rand.New(rand.NewSource(29))
	for range tables {
		random = append(random, atlas.Random(rng, 2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(3)))
	}
	for _, group := range []struct {
		name string
		typs []spec.Type
	}{
		{"block+edges", append(block, types.NewFetchAdd(8), wide)},
		{"random", random},
	} {
		t.Run(group.name, func(t *testing.T) {
			t.Parallel()
			sc := new(scratch)
			checked := 0
			for _, typ := range group.typs {
				for n := 2; n <= 4; n++ {
					c, err := compile.Compile(typ, n)
					if err != nil {
						t.Fatalf("%s n=%d: %v", typ.Name(), n, err)
					}
					checked += kernelParity(t, typ, c, n, sc)
					if want := c.NumStates()*c.NumResps() <= maxMaskCells; sc.words != want || want != (typ != wide) {
						t.Fatalf("%s: %d states × %d responses took word masks: %v",
							typ.Name(), c.NumStates(), c.NumResps(), sc.words)
					}
				}
			}
			t.Logf("%d tables, %d candidates", len(group.typs), checked)
		})
	}
}
