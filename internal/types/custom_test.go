package types

import (
	"errors"
	"testing"

	"rcons/internal/spec"
)

// stickyJSON defines a 2-value sticky object as a custom type: the first
// operation wins and every later operation observes it.
const stickyJSON = `{
  "name": "json-sticky",
  "initial": ["q0"],
  "transitions": {
    "q0": {"opA": {"next": "qa", "resp": "A"}, "opB": {"next": "qb", "resp": "B"}},
    "qa": {"opA": {"next": "qa", "resp": "A"}, "opB": {"next": "qa", "resp": "A"}},
    "qb": {"opA": {"next": "qb", "resp": "B"}, "opB": {"next": "qb", "resp": "B"}}
  }
}`

func TestCustomFromJSON(t *testing.T) {
	c, err := NewCustomFromJSON([]byte(stickyJSON))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "json-sticky" || !Readable(c) {
		t.Fatalf("name=%q readable=%v", c.Name(), Readable(c))
	}
	if got := c.InitialStates(); len(got) != 1 || got[0] != "q0" {
		t.Fatalf("initial states = %v", got)
	}
	if got := c.Ops(); len(got) != 2 || got[0] != "opA" {
		t.Fatalf("ops = %v", got)
	}
	s, r, err := c.Apply("q0", "opB")
	if err != nil || s != "qb" || r != "B" {
		t.Fatalf("Apply = (%q,%q,%v)", s, r, err)
	}
}

func TestCustomApplyErrors(t *testing.T) {
	c, err := NewCustomFromJSON([]byte(stickyJSON))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Apply("nope", "opA"); !errors.Is(err, spec.ErrBadState) {
		t.Errorf("bad state error = %v", err)
	}
	if _, _, err := c.Apply("q0", "nope"); !errors.Is(err, spec.ErrBadOp) {
		t.Errorf("bad op error = %v", err)
	}
}

func TestCustomValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"syntax", `{`},
		{"no name", `{"transitions":{"q":{"o":{"next":"q","resp":"r"}}}}`},
		{"no states", `{"name":"x","transitions":{}}`},
		{"missing op", `{"name":"x","transitions":{
			"q0":{"a":{"next":"q0","resp":"r"},"b":{"next":"q0","resp":"r"}},
			"q1":{"a":{"next":"q1","resp":"r"}}}}`},
		{"dangling next", `{"name":"x","transitions":{
			"q0":{"a":{"next":"q9","resp":"r"}}}}`},
		{"bad initial", `{"name":"x","initial":["zz"],"transitions":{
			"q0":{"a":{"next":"q0","resp":"r"}}}}`},
	}
	for _, c := range cases {
		if _, err := NewCustomFromJSON([]byte(c.json)); err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		}
	}
}

func TestCustomNonReadableFlag(t *testing.T) {
	j := `{"name":"x","readable":false,"transitions":{
		"q0":{"a":{"next":"q0","resp":"r"}}}}`
	c, err := NewCustomFromJSON([]byte(j))
	if err != nil {
		t.Fatal(err)
	}
	if Readable(c) {
		t.Error("readable=false ignored")
	}
}

func TestCustomDefaultInitialStatesAreAllStates(t *testing.T) {
	j := `{"name":"x","transitions":{
		"q0":{"a":{"next":"q1","resp":"r"}},
		"q1":{"a":{"next":"q0","resp":"r"}}}}`
	c, err := NewCustomFromJSON([]byte(j))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.InitialStates(); len(got) != 2 {
		t.Fatalf("initial states = %v, want both", got)
	}
}

// benchCustomTable is a random 3-state, 2-op, 2-response table as
// json.Marshal renders an atlas table: the upload rcperf's serve-cold
// POSTs.
var benchCustomTable = []byte(`{"name":"random(3,2)","initial":["s0","s1","s2"],"transitions":{"s0":{"o0":{"next":"s2","resp":"r1"},"o1":{"next":"s2","resp":"r1"}},"s1":{"o0":{"next":"s1","resp":"r0"},"o1":{"next":"s1","resp":"r0"}},"s2":{"o0":{"next":"s1","resp":"r0"},"o1":{"next":"s2","resp":"r1"}}},"readable":null}`)

func BenchmarkCustomFromJSON(b *testing.B) {
	b.SetBytes(int64(len(benchCustomTable)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewCustomFromJSON(benchCustomTable); err != nil {
			b.Fatal(err)
		}
	}
}
