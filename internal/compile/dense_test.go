package compile_test

import (
	"math/rand"
	"reflect"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/compile"
	"rcons/internal/engine"
	"rcons/internal/spec"
)

// walked hides every method of its type but spec.Type's, so Table
// walks it even when the type is compile.Dense.
type walked struct{ spec.Type }

// counted is a Dense table that counts the Apply calls made on it.
type counted struct {
	*atlas.Table
	applies *int
}

func (c counted) Apply(s spec.State, op spec.Op) (spec.State, spec.Response, error) {
	*c.applies++
	return c.Table.Apply(s, op)
}

// tableView is everything a Compiled exposes, read through its
// accessors.
type tableView struct {
	States      []spec.State
	Ops         []spec.Op
	Resps       []spec.Response
	Next, Resp  []uint16
	InitSeq     []uint16
	InitIndices []uint16
	Readable    bool
	Autos       []compile.Element
	Fingerprint string
}

func view(t *testing.T, typ spec.Type, n int) tableView {
	t.Helper()
	c, err := compile.Table(typ, n)
	if err != nil {
		t.Fatalf("Table(%s, %d): %v", typ.Name(), n, err)
	}
	v := tableView{
		InitSeq:     c.InitSeq(),
		InitIndices: c.InitIndices(),
		Readable:    c.Readable(),
		Autos:       c.Automorphisms().Elements(),
	}
	for s := range c.NumStates() {
		v.States = append(v.States, c.StateAt(uint16(s)))
		for o := range c.NumOps() {
			next, resp := c.Apply(uint16(s), uint16(o))
			v.Next = append(v.Next, next)
			v.Resp = append(v.Resp, resp)
		}
	}
	for o := range c.NumOps() {
		v.Ops = append(v.Ops, c.OpAt(uint16(o)))
	}
	for r := range c.NumResps() {
		v.Resps = append(v.Resps, c.RespAt(uint16(r)))
	}
	fp, ok := engine.Fingerprint(typ, n)
	if !ok {
		t.Fatalf("Fingerprint(%s, %d) undefined", typ.Name(), n)
	}
	v.Fingerprint = fp
	return v
}

// TestDenseTableMatchesWalk: the table Table reads from an atlas
// table's arrays equals the one its breadth-first walk of the same
// table builds — states in string order ("s10" before "s2"), responses
// by first occurrence, initial states, readability, automorphism group
// and engine fingerprint — over the whole 3×2×2 enumeration, 2,000
// random tables up to 4×3×3, and a table of 12 states.
func TestDenseTableMatchesWalk(t *testing.T) {
	var corpus []*atlas.Table
	if _, _, err := atlas.Enumerate(atlas.Bounds{States: 3, Ops: 2, Resps: 2}, func(_ string, tbl *atlas.Table) bool {
		corpus = append(corpus, tbl)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	for range 2000 {
		corpus = append(corpus, atlas.Random(rng, 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(3)))
	}
	big := atlas.Random(rng, 12, 2, 3)
	corpus = append(corpus, big)
	if got := view(t, big, 2).States[2]; got != "s10" {
		t.Fatalf("state 2 of a 12-state table is %q, want \"s10\"", got)
	}
	for _, tbl := range corpus {
		applies := 0
		if _, err := compile.Table(counted{tbl, &applies}, 2); err != nil || applies != 0 {
			t.Fatalf("%s: Table made %d Apply calls (err %v); a Dense table is read, not walked", tbl.Name(), applies, err)
		}
		for n := 2; n <= 3; n++ {
			dense, walk := view(t, tbl, n), view(t, walked{tbl}, n)
			if !reflect.DeepEqual(dense, walk) {
				t.Fatalf("%s (%s) n=%d:\ndense %+v\nwalk  %+v", tbl.Name(), tbl.Dims(), n, dense, walk)
			}
		}
	}
}
