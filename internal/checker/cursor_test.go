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

// shardCorpus is the zoo plus every enumerated table with ≤2 states,
// ≤2 ops and ≤2 responses.
func shardCorpus(t *testing.T) []spec.Type {
	t.Helper()
	typs := types.Zoo()
	if _, _, err := atlas.Enumerate(atlas.Bounds{States: 2, Ops: 2, Resps: 2}, func(_ string, tb *atlas.Table) bool {
		typs = append(typs, tb)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return typs
}

// indexCounts maps a string shard's team-A counts to table op indices.
func indexCounts(t *testing.T, c *compile.Compiled, s shard) []int {
	t.Helper()
	counts := make([]int, c.NumOps())
	for k, op := range s.ops {
		oi, ok := c.OpIndex(op)
		if !ok {
			t.Fatalf("op %q missing from the table", op)
		}
		counts[oi] += s.aCounts[k]
	}
	return counts
}

// TestShardCursorMatchesShards: for the zoo and the enumerated tables
// at n = 2..4, the cursor yields exactly the string shards, in order,
// mapped through StateIndex and OpIndex, and Len counts them.
func TestShardCursorMatchesShards(t *testing.T) {
	checked := 0
	for _, typ := range shardCorpus(t) {
		for n := 2; n <= 4; n++ {
			c, err := compile.Compile(typ, n)
			if err != nil {
				continue
			}
			all, err := shards(typ, n)
			if err != nil {
				t.Fatalf("%s n=%d: Shards: %v", typ.Name(), n, err)
			}
			cur, err := NewShardCursor(c, n)
			if err != nil {
				t.Fatalf("%s n=%d: NewShardCursor: %v", typ.Name(), n, err)
			}
			if cur.Len() != len(all) {
				t.Fatalf("%s n=%d: Len %d, shards has %d", typ.Name(), n, cur.Len(), len(all))
			}
			for i, s := range all {
				if !cur.Next() {
					t.Fatalf("%s n=%d: cursor ended after %d of %d shards", typ.Name(), n, i, len(all))
				}
				q0, ok := c.StateIndex(s.q0)
				if !ok || cur.Q0() != q0 || c.InitSeq()[cur.Init()] != q0 || typ.InitialStates()[cur.Init()] != s.q0 {
					t.Fatalf("%s n=%d shard %d: cursor q0 %d (init %d), want %q", typ.Name(), n, i, cur.Q0(), cur.Init(), s.q0)
				}
				if want := indexCounts(t, c, s); !slices.Equal(cur.ACounts(), want) {
					t.Fatalf("%s n=%d shard %d: cursor counts %v, want %v", typ.Name(), n, i, cur.ACounts(), want)
				}
				checked++
			}
			if cur.Next() || cur.Next() {
				t.Fatalf("%s n=%d: cursor yields more than %d shards", typ.Name(), n, len(all))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no shard was checked")
	}
	c, err := compile.Table(types.NewCAS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardCursor(c, 1); err == nil {
		t.Fatal("cursor accepted n = 1")
	}
}

// never is a stop function that never stops.
func never() bool { return false }

// TestIndexSearchMatchesInterpreted: on every shard of the corpus at
// n = 2..3, the index search returns the interpreted search's witness,
// or nil on both sides, for both properties.
func TestIndexSearchMatchesInterpreted(t *testing.T) {
	ctx := context.Background()
	for _, typ := range shardCorpus(t) {
		for n := 2; n <= 3; n++ {
			c, err := compile.Compile(typ, n)
			if err != nil {
				continue
			}
			all, err := shards(typ, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, recording := range []bool{true, false} {
				s := NewIndexSearch(c, n, recording)
				for _, sh := range all {
					want, err := searchShard(ctx, typ, sh, interpreted(recording))
					if err != nil {
						t.Fatal(err)
					}
					q0, _ := c.StateIndex(sh.q0)
					got, err := s.Search(q0, indexCounts(t, c, sh), never)
					if err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s n=%d shard %+v (recording=%v): index search (%v, %v), interpreted %v",
							typ.Name(), n, sh, recording, got, err, want)
					}
				}
			}
		}
	}
}

// TestIndexSearchBeyondCompiledN: past maxCompiledN processes the index
// search falls back to the interpreted verifier and stays exact.
func TestIndexSearchBeyondCompiledN(t *testing.T) {
	const n = maxCompiledN + 1
	typ := &types.Custom{
		TypeName: "flip-stay",
		Initial:  []string{"a"},
		Transitions: map[string]map[string]types.CustomEdge{
			"a": {"flip": {Next: "b", Resp: "x"}, "stay": {Next: "a", Resp: "y"}},
			"b": {"flip": {Next: "a", Resp: "y"}, "stay": {Next: "b", Resp: "y"}},
		},
	}
	c, err := compile.Compile(typ, n)
	if err != nil {
		t.Fatal(err)
	}
	all, err := shards(typ, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, recording := range []bool{true, false} {
		s := NewIndexSearch(c, n, recording)
		for _, sh := range all[:3] {
			want, err := searchShard(context.Background(), typ, sh, interpreted(recording))
			if err != nil {
				t.Fatal(err)
			}
			q0, _ := c.StateIndex(sh.q0)
			got, err := s.Search(q0, indexCounts(t, c, sh), never)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d shard %+v (recording=%v): index search (%v, %v), interpreted %v",
					n, sh, recording, got, err, want)
			}
		}
	}
}

// TestIndexSearchStops: a stop that fires at once abandons even a shard
// that holds a witness, and reports nothing.
func TestIndexSearchStops(t *testing.T) {
	typ := types.NewCAS()
	c, err := compile.Compile(typ, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := NewShardCursor(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := NewIndexSearch(c, 2, true)
	for cur.Next() {
		if w, _ := s.Search(cur.Q0(), cur.ACounts(), never); w == nil {
			continue
		}
		w, err := s.Search(cur.Q0(), cur.ACounts(), func() bool { return true })
		if w != nil || err != nil {
			t.Fatalf("stopped search returned (%v, %v)", w, err)
		}
		return
	}
	t.Fatal("no shard of compare&swap at n=2 holds a recording witness")
}

// TestIndexSearchAllocs: once an index search's scratch is warm,
// searching a witness-free shard allocates nothing, however many
// candidates it checks. The searcher owns its scratch, so this holds
// under the race detector too.
func TestIndexSearchAllocs(t *testing.T) {
	const n = 3
	for _, recording := range []bool{true, false} {
		typ, c, sh := witnessFreeShard(t, n, recording, 3)
		q0, _ := c.StateIndex(sh.q0)
		counts := indexCounts(t, c, sh)
		s := NewIndexSearch(c, n, recording)
		if _, err := s.Search(q0, counts, never); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if w, _ := s.Search(q0, counts, never); w != nil {
				t.Fatalf("%s shard %+v has a witness", typ.Name(), sh)
			}
		})
		if allocs != 0 {
			t.Errorf("%s shard %+v (recording=%v): %v allocations per shard, want 0",
				typ.Name(), sh, recording, allocs)
		}
	}
}
