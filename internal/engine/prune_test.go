package engine

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"rcons/internal/checker"
	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// symType is a two-state table with a state-swap automorphism: both
// states are initial, "flip" swaps them, "stay" fixes them, responses
// are constant. Its automorphism group has order 2, so shard pruning
// fires.
func symType() *types.Custom {
	return &types.Custom{
		TypeName: "prune-sym2",
		Initial:  []string{"a", "b"},
		Transitions: map[string]map[string]types.CustomEdge{
			"a": {"flip": {Next: "b", Resp: "ack"}, "stay": {Next: "a", Resp: "ack"}},
			"b": {"flip": {Next: "a", Resp: "ack"}, "stay": {Next: "b", Resp: "ack"}},
		},
	}
}

// indexShard is one shard a ShardCursor yielded, copied out.
type indexShard struct {
	q0     uint16
	counts []int
}

// cursorShards lists c's index shards among n processes in cursor
// order: all of them, and the ones an orbitFilter over c keeps.
func cursorShards(t *testing.T, c *compile.Compiled, n int) (all, kept []indexShard) {
	t.Helper()
	cur, err := checker.NewShardCursor(c, n)
	if err != nil {
		t.Fatal(err)
	}
	var orbits orbitFilter
	orbits.reset(c, true)
	for cur.Next() {
		s := indexShard{q0: cur.Q0(), counts: slices.Clone(cur.ACounts())}
		all = append(all, s)
		if orbits.first(s.q0, s.counts) {
			kept = append(kept, s)
		}
	}
	return all, kept
}

// TestPruneSymmetricShards checks the reduction itself: on a type with
// a nontrivial automorphism group the cursor's shards shrink, every
// kept shard is the first of its orbit, and on a trivial group every
// shard is kept.
func TestPruneSymmetricShards(t *testing.T) {
	typ := symType()
	const n = 3
	c, err := compile.Compile(typ, n)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Automorphisms().Nontrivial() {
		t.Fatal("expected a nontrivial automorphism group")
	}
	orig, pruned := cursorShards(t, c, n)
	if len(pruned) >= len(orig) {
		t.Fatalf("pruning kept %d of %d shards; expected a strict reduction", len(pruned), len(orig))
	}
	// Kept shards must be a subsequence of the original order (first
	// orbit occurrences), starting with shard 0.
	if !reflect.DeepEqual(pruned[0], orig[0]) {
		t.Fatalf("first shard was pruned: %+v", pruned[0])
	}
	j := 0
	for _, s := range pruned {
		for j < len(orig) && !reflect.DeepEqual(orig[j], s) {
			j++
		}
		if j == len(orig) {
			t.Fatalf("pruned shard %+v is not in original order", s)
		}
	}

	// A trivial group must keep every shard.
	asym := &types.Custom{
		TypeName: "prune-asym",
		Initial:  []string{"a"},
		Transitions: map[string]map[string]types.CustomEdge{
			"a": {"f": {Next: "b", Resp: "r0"}, "g": {Next: "a", Resp: "r1"}},
			"b": {"f": {Next: "b", Resp: "r1"}, "g": {Next: "a", Resp: "r0"}},
		},
	}
	ca, err := compile.Compile(asym, n)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Automorphisms().Nontrivial() {
		t.Fatal("asym type unexpectedly has symmetry")
	}
	if all, kept := cursorShards(t, ca, n); len(kept) != len(all) {
		t.Fatalf("trivial group pruned %d shards", len(all)-len(kept))
	}
}

// TestPrunedSearchMatchesInterpreted pins end-to-end soundness: the
// default engine (compiled tables + symmetry pruning) must classify the
// symmetric type and return witnesses bit-identically to the sequential
// interpreted search, which enumerates every shard.
func TestPrunedSearchMatchesInterpreted(t *testing.T) {
	typ := symType()
	fast := New(Options{Workers: 4})
	seq := map[Property]func(spec.Type, int) (*checker.Witness, error){
		Recording:  checker.SearchRecording,
		Discerning: checker.SearchDiscerning,
	}
	ctx := context.Background()
	for n := 2; n <= 4; n++ {
		for p, search := range seq {
			wf, err := fast.Search(ctx, typ, p, n)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := search(typ, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wf, ws) {
				t.Fatalf("n=%d %v: pruned witness %+v != sequential %+v", n, p, wf, ws)
			}
		}
	}
}
