package compile

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// referenceCompile is the two-pass Compile that preceded Table's single
// walk — spec.Reachable from every initial state, then a second Apply
// pass over every cell — kept verbatim as the oracle for the tables
// Compile builds.
func referenceCompile(t spec.Type, n int) (*Compiled, error) {
	ops := spec.CandidateOps(t, n)
	if len(ops) == 0 {
		return nil, fmt.Errorf("compile %s: type has no update operations", t.Name())
	}
	opIdx := make(map[spec.Op]uint16, len(ops))
	for i, op := range ops {
		if _, _, err := spec.ParseOp(op); err != nil {
			return nil, fmt.Errorf("compile %s: %w", t.Name(), err)
		}
		if _, dup := opIdx[op]; dup {
			return nil, fmt.Errorf("compile %s: duplicate operation %q in candidate alphabet", t.Name(), op)
		}
		opIdx[op] = uint16(i)
	}

	inits := t.InitialStates()
	if len(inits) == 0 {
		return nil, fmt.Errorf("compile %s: type has no initial states", t.Name())
	}
	union := map[spec.State]bool{}
	for _, q0 := range inits {
		reach, err := spec.Reachable(t, q0, ops, StateCap)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", t.Name(), err)
		}
		for _, s := range reach {
			union[s] = true
		}
	}
	if len(union) > StateCap {
		return nil, fmt.Errorf("compile %s: %d reachable states exceed cap %d", t.Name(), len(union), StateCap)
	}
	states := make([]spec.State, 0, len(union))
	for s := range union {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })

	c := &Compiled{
		src:      t,
		states:   states,
		ops:      ops,
		stateIdx: make(map[spec.State]uint16, len(states)),
		opIdx:    opIdx,
		nextTab:  make([]uint16, len(states)*len(ops)),
		respTab:  make([]uint16, len(states)*len(ops)),
		readable: types.Readable(t),
	}
	for i, s := range states {
		c.stateIdx[s] = uint16(i)
	}
	// Responses are interned by first occurrence in row-major table
	// order — deterministic because the state list is sorted and the op
	// list is the fixed candidate order.
	respIdx := map[spec.Response]uint16{}
	for si, s := range states {
		for oi, op := range ops {
			ns, r, err := t.Apply(s, op)
			if err != nil {
				return nil, fmt.Errorf("compile %s: apply %s to %q: %w", t.Name(), op, s, err)
			}
			ni, ok := c.stateIdx[ns]
			if !ok {
				// Unreachable: the state set is a Reachable closure.
				return nil, fmt.Errorf("compile %s: successor %q of (%q, %s) escapes the reachable closure", t.Name(), ns, s, op)
			}
			ri, ok := respIdx[r]
			if !ok {
				ri = uint16(len(c.resps))
				respIdx[r] = ri
				c.resps = append(c.resps, r)
			}
			c.nextTab[si*len(ops)+oi] = ni
			c.respTab[si*len(ops)+oi] = ri
		}
	}
	seenInit := map[uint16]bool{}
	for _, q0 := range inits {
		i := c.stateIdx[q0] // present: Reachable includes its seed
		if !seenInit[i] {
			seenInit[i] = true
			c.inits = append(c.inits, i)
		}
	}
	sort.Slice(c.inits, func(i, j int) bool { return c.inits[i] < c.inits[j] })
	return c, nil
}

// tableCorpus is the zoo plus random 3×2×2 and 4×3×3 tables.
func tableCorpus() []spec.Type {
	corpus := types.Zoo()
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 40; i++ {
		corpus = append(corpus, atlas.Random(rng, 3, 2, 2), atlas.Random(rng, 4, 3, 3))
	}
	return corpus
}

// TestCompileMatchesReference requires Compile to build exactly the
// reference's tables — states, ops, responses, both transition arrays,
// initial states and the index maps — and to fail exactly where the
// reference fails.
func TestCompileMatchesReference(t *testing.T) {
	compiled := 0
	corpus := tableCorpus()
	for _, typ := range corpus {
		for n := 2; n <= 5; n++ {
			got, gotErr := Compile(typ, n)
			want, wantErr := referenceCompile(typ, n)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s n=%d: Compile error %v, reference error %v", typ.Name(), n, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			compiled++
			got.index()
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"states", got.states, want.states},
				{"ops", got.ops, want.ops},
				{"resps", got.resps, want.resps},
				{"nextTab", got.nextTab, want.nextTab},
				{"respTab", got.respTab, want.respTab},
				{"inits", got.inits, want.inits},
				{"stateIdx", got.stateIdx, want.stateIdx},
				{"opIdx", got.opIdx, want.opIdx},
				{"readable", got.readable, want.readable},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("%s n=%d: %s = %v, reference %v", typ.Name(), n, f.name, f.got, f.want)
				}
			}
			for i, q0 := range typ.InitialStates() {
				if got.StateAt(got.InitSeq()[i]) != q0 {
					t.Fatalf("%s n=%d: InitSeq()[%d] names %q, want %q", typ.Name(), n, i, got.StateAt(got.InitSeq()[i]), q0)
				}
			}
		}
	}
	if compiled < 3*len(corpus) {
		t.Fatalf("only %d of %d (type, n) pairs compiled", compiled, 4*len(corpus))
	}
}

// dupOps offers its type's alphabet with the first op repeated.
type dupOps struct{ spec.Type }

func (d dupOps) OpsFor(n int) []spec.Op {
	ops := spec.CandidateOps(d.Type, n)
	return append(ops, ops[0])
}

// noInits reports no initial states.
type noInits struct{ spec.Type }

func (noInits) InitialStates() []spec.State { return nil }

// TestTableWhereCompileRejects covers the tables only the compiled
// search rejects: Table builds them (their fingerprints are defined),
// Searchable names the reason, and Compile fails with it.
func TestTableWhereCompileRejects(t *testing.T) {
	for _, tc := range []struct {
		typ    spec.Type
		reason string
	}{
		{types.ReadOnly{}, "no update operations"},
		{&types.Custom{
			TypeName:    "badop",
			Initial:     []string{"q"},
			Transitions: map[string]map[string]types.CustomEdge{"q": {"f(a": {Next: "q", Resp: "ack"}}},
		}, "unsupported operation"},
		{dupOps{types.NewCAS()}, "duplicate operation"},
		{noInits{types.NewCAS()}, "no initial states"},
	} {
		for n := 2; n <= 5; n++ {
			c, err := Table(tc.typ, n)
			if err != nil {
				t.Fatalf("Table(%s, %d): %v", tc.typ.Name(), n, err)
			}
			if err := c.Searchable(); err == nil || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("%s n=%d: Searchable() = %v, want %q", tc.typ.Name(), n, err, tc.reason)
			}
			if _, err := Compile(tc.typ, n); err == nil || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("%s n=%d: Compile error = %v, want %q", tc.typ.Name(), n, err, tc.reason)
			}
			if want := len(spec.CandidateOps(tc.typ, n)); c.NumOps() != want {
				t.Fatalf("%s n=%d: %d table columns, want one per candidate op (%d)", tc.typ.Name(), n, c.NumOps(), want)
			}
		}
	}
}

// chain is a line of states 0 → 1 → … → last; "inc" stops at last.
type chain struct{ last int }

func (c chain) Name() string              { return fmt.Sprintf("chain(%d)", c.last) }
func (chain) InitialStates() []spec.State { return []spec.State{"0"} }
func (chain) Ops() []spec.Op              { return []spec.Op{"inc"} }
func (c chain) Apply(s spec.State, _ spec.Op) (spec.State, spec.Response, error) {
	var i int
	if _, err := fmt.Sscan(string(s), &i); err != nil {
		return "", "", err
	}
	return spec.State(fmt.Sprint(min(i+1, c.last))), "ack", nil
}

// TestTableStateCap: exactly StateCap reachable states build, one more
// fails — the bound the fingerprints inherit.
func TestTableStateCap(t *testing.T) {
	c, err := Table(chain{last: StateCap - 1}, 2)
	if err != nil || c.NumStates() != StateCap {
		t.Fatalf("Table at the cap: %v states, err %v", c.NumStates(), err)
	}
	if _, err := Table(chain{last: StateCap}, 2); err == nil || !strings.Contains(err.Error(), "exceed cap") {
		t.Fatalf("Table past the cap: err %v", err)
	}
}
