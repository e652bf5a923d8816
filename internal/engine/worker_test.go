package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/checker"
	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// twoStarts is a test&set both of whose states are initial, and only
// its start "b" has a witness: a stale symmetry group that swapped the
// two states, such as symType's, would prune that start away.
func twoStarts() *types.Custom {
	return &types.Custom{
		TypeName: "two-starts",
		Initial:  []string{"a", "b"},
		Transitions: map[string]map[string]types.CustomEdge{
			"a": {"tas": {Next: "a", Resp: "1"}},
			"b": {"tas": {Next: "a", Resp: "0"}},
		},
	}
}

// TestWorkerReuseMatchesFresh runs one Worker through a mixed sequence
// of types and limits, and requires every classification, witnesses
// included, to be byte-identical to a fresh engine's and to
// checker.Classify's: nothing the worker reuses (level tables and their
// automorphism groups, cursor, ordered run, orbit set, shard scratch)
// may leak from one type into the next. The sequence varies NumStates
// and NumOps, includes a table past 64 cells (the explicit DFS), one
// with no searchable table (the sequential search), types with
// spec.OpsForN, and a type with a nontrivial symmetry group followed by
// one it would mis-prune, and ends with its first type again. It runs on
// compiled and interpreted engines of one worker slot, where the worker
// checks every shard itself, and of three, where helpers check shards
// with the worker's helper scratch.
func TestWorkerReuseMatchesFresh(t *testing.T) {
	next, resp := make([]uint8, 12), make([]uint8, 12)
	for i := range next {
		next[i], resp[i] = uint8((5*i+1)%6), uint8(i%11)
	}
	wide, err := atlas.NewTable(6, 2, 11, next, resp)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := compile.Table(wide, 2); err != nil || c.NumStates()*c.NumResps() <= 64 {
		t.Fatalf("wide table: %v, want more than 64 cells", err)
	}
	dup := dupRegister{types.NewRegister()}
	if c, err := compile.Table(dup, 3); err != nil || c.Searchable() == nil {
		t.Fatalf("%s: want a table that fails Searchable, got err %v", dup.Name(), err)
	}
	rng := rand.New(rand.NewSource(32))
	type job struct {
		typ   spec.Type
		limit int
	}
	seq := []job{
		{symType(), 3},
		{twoStarts(), 3},
		{atlas.Random(rng, 4, 3, 3), 4},
		{atlas.Random(rng, 2, 1, 1), 3},
		{wide, 3},
		{types.NewCAS(), 3},
		{atlas.Random(rng, 3, 2, 2), 2},
		{dup, 3},
		{types.NewSticky(), 4},
		{atlas.Random(rng, 4, 2, 3), 3},
		{types.NewSn(3), 4},
	}
	seq = append(seq, seq[0])
	ctx := context.Background()
	for _, interp := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			opts := Options{Workers: workers, Interpreted: interp}
			got := make([]checker.Classification, len(seq))
			New(opts).Each(1, len(seq), func(w *Worker, i int) bool {
				var err error
				if got[i], err = w.Classify(ctx, seq[i].typ, seq[i].limit); err != nil {
					t.Errorf("%+v: %s limit %d: %v", opts, seq[i].typ.Name(), seq[i].limit, err)
					return false
				}
				return true
			})
			if t.Failed() {
				return
			}
			for i, j := range seq {
				fresh, err := New(opts).Classify(ctx, j.typ, j.limit)
				if err != nil {
					t.Fatal(err)
				}
				seqc, err := checker.Classify(j.typ, j.limit)
				if err != nil {
					t.Fatal(err)
				}
				reused, want, sequential := encodeJSON(t, got[i]), encodeJSON(t, fresh), encodeJSON(t, seqc)
				if !bytes.Equal(reused, want) || !bytes.Equal(want, sequential) {
					t.Fatalf("%+v, item %d (%s, limit %d):\nreused worker %s\nfresh engine  %s\nsequential    %s",
						opts, i, j.typ.Name(), j.limit, reused, want, sequential)
				}
			}
		}
	}
}

// TestConcurrentClassifyMatchesSequential: direct Classify calls from
// several goroutines at once on one engine pass idle Workers from call
// to call, and each answer, witnesses included, must still equal
// checker.Classify's. Run it under -race: a Worker that two calls held
// at once, or a result that aliased a Worker put back idle, shows here.
func TestConcurrentClassifyMatchesSequential(t *testing.T) {
	zoo := types.Zoo()
	want := make([][]byte, len(zoo))
	for i, typ := range zoo {
		c, err := checker.Classify(typ, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encodeJSON(t, c)
	}
	e := New(Options{Workers: 2})
	const callers = 4
	var wg sync.WaitGroup
	for k := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range zoo {
				i := (j + k*len(zoo)/callers) % len(zoo)
				c, err := e.Classify(context.Background(), zoo[i], 3)
				if err != nil {
					t.Errorf("%s: %v", zoo[i].Name(), err)
					return
				}
				if got, _ := json.Marshal(c); !bytes.Equal(got, want[i]) {
					t.Errorf("%s: concurrent engine %s, sequential %s", zoo[i].Name(), got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEachHoldsItsSlots pins the engine's slot rule with its helper
// count. A full-width Each, one goroutine per slot, holds every slot
// before any of its goroutines runs an item and while all of them are
// in the batch, so none of its searches starts a helper: each goroutine
// classifies the zoo, then waits in its item until every other has
// too. A narrower Each leaves a slot free that its searches fan out on,
// and so does a direct Classify on an idle engine. Every slot is free again once Each or Classify returns.
func TestEachHoldsItsSlots(t *testing.T) {
	ctx := context.Background()
	zoo := types.Zoo()
	classifyZoo := func(w *Worker) {
		for _, typ := range zoo {
			if _, err := w.Classify(ctx, typ, 3); err != nil {
				t.Errorf("%s: %v", typ.Name(), err)
			}
		}
	}
	freeSlots := func(e *Engine) {
		t.Helper()
		if got := len(e.slots); got != e.workers {
			t.Fatalf("%d of %d slots free after the calls returned", got, e.workers)
		}
	}

	for _, width := range []int{2, 3} {
		e := New(Options{Workers: width})
		var classified sync.WaitGroup
		classified.Add(width)
		e.Each(width, width, func(w *Worker, _ int) bool {
			if free := len(e.slots); free != 0 {
				t.Errorf("Each(%d, …) on a %d-slot engine ran an item with %d slots still free", width, width, free)
			}
			classifyZoo(w)
			classified.Done()
			classified.Wait()
			return true
		})
		if got := e.helpers.Load(); got != 0 {
			t.Errorf("Each(%d, …) on a %d-slot engine started %d helpers, want 0", width, width, got)
		}
		freeSlots(e)
	}

	narrow := New(Options{Workers: 2})
	narrow.Each(1, 1, func(w *Worker, _ int) bool {
		classifyZoo(w)
		return true
	})
	if narrow.helpers.Load() == 0 {
		t.Error("Each(1, …) on a 2-slot engine started no helper")
	}
	freeSlots(narrow)

	idle := New(Options{Workers: 2})
	if _, err := idle.Classify(ctx, types.NewCAS(), 3); err != nil {
		t.Fatal(err)
	}
	if idle.helpers.Load() == 0 {
		t.Error("a direct Classify on an idle 2-slot engine started no helper")
	}
	freeSlots(idle)
}
