package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rcons/internal/checker"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// fuzzTable decodes fuzz bytes into a total transition table:
// nStates ∈ 1..16, nOps ∈ 1..3, responses over an alphabet of ≤ 3, and
// 1..3 initial states (repeats allowed). Tables past 10 states give the
// canonical encodings ids of two decimal digits. The same bytes always
// decode to the same table, so fuzz findings are reproducible.
type fuzzTable struct {
	nStates, nOps, nResps int
	next, resp            [][]int // [state][op]
	init                  []int
}

// decodeTable reads the sizes from the first three bytes (the third
// also picks the number of initial states), the first initial state
// from the fourth, then every row's (next, response) pairs and any
// further initial states. Inputs of at least four bytes always decode:
// bytes past the end wrap around to the start, so short inputs still
// reach large tables.
func decodeTable(data []byte) (*fuzzTable, bool) {
	if len(data) < 4 {
		return nil, false
	}
	at := func(i int) int { return int(data[i%len(data)]) }
	ft := &fuzzTable{
		nStates: at(0)%16 + 1,
		nOps:    at(1)%3 + 1,
		nResps:  at(2)%3 + 1,
	}
	ft.init = []int{at(3) % ft.nStates}
	pos := 4
	for s := 0; s < ft.nStates; s++ {
		nrow := make([]int, ft.nOps)
		rrow := make([]int, ft.nOps)
		for o := 0; o < ft.nOps; o++ {
			nrow[o] = at(pos) % ft.nStates
			rrow[o] = at(pos+1) % ft.nResps
			pos += 2
		}
		ft.next = append(ft.next, nrow)
		ft.resp = append(ft.resp, rrow)
	}
	for range at(2) / 3 % 3 {
		ft.init = append(ft.init, at(pos)%ft.nStates)
		pos++
	}
	return ft, true
}

// build materializes the table as a Custom type with the given label
// functions, so the same structure can be produced under different
// labelings.
func (ft *fuzzTable) build(name string, state, op, resp func(int) string) *types.Custom {
	tr := map[string]map[string]types.CustomEdge{}
	for s := 0; s < ft.nStates; s++ {
		row := map[string]types.CustomEdge{}
		for o := 0; o < ft.nOps; o++ {
			row[op(o)] = types.CustomEdge{
				Next: state(ft.next[s][o]),
				Resp: resp(ft.resp[s][o]),
			}
		}
		tr[state(s)] = row
	}
	c := &types.Custom{TypeName: name, Transitions: tr}
	for _, s := range ft.init {
		c.Initial = append(c.Initial, state(s))
	}
	return c
}

// permFromByte derives a permutation of 0..k-1 from one fuzz byte.
func permFromByte(b byte, k int) []int {
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	// Fisher–Yates driven by the byte: every permutation for k ≤ 5,
	// some of them beyond.
	x := int(b)
	for i := k - 1; i > 0; i-- {
		j := x % (i + 1)
		x /= i + 1
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FuzzFingerprint checks the canonical fingerprint's defining property:
// invariance under consistent relabeling of states, operations and
// responses. It also pins down determinism of both fingerprint flavours
// and checks both against their Apply-driven references, on the
// original table and on the relabeled one.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x01\x01\x01\x00\x01\x00\x00\x01\x01\x01\x01\x00"))
	f.Add([]byte("\x03\x02\x02\x01" +
		"\x01\x00\x02\x01\x03\x02" +
		"\x00\x01\x01\x02\x02\x00" +
		"\x03\x00\x00\x00\x01\x01" +
		"\x02\x02\x03\x01\x00\x00"))
	// 16 states, 2 ops, 2 responses and 3 initial states (0, 5, 11).
	wide := []byte{15, 1, 7, 0}
	for s := range 16 {
		wide = append(wide, byte(s+1), 0, byte(3*s+1), byte(s))
	}
	f.Add(append(wide, 5, 11))
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, ok := decodeTable(data)
		if !ok {
			t.Skip()
		}
		// Relabeling permutations come from the tail of the input so the
		// fuzzer can explore them independently of the table.
		var pb [3]byte
		for i := range pb {
			if len(data) > i {
				pb[i] = data[len(data)-1-i]
			}
		}
		ps := permFromByte(pb[0], ft.nStates)
		po := permFromByte(pb[1], ft.nOps)
		pr := permFromByte(pb[2], ft.nResps)

		orig := ft.build("fz",
			func(i int) string { return fmt.Sprintf("s%d", i) },
			func(i int) string { return fmt.Sprintf("a%d", i) },
			func(i int) string { return fmt.Sprintf("r%d", i) })
		relabeled := ft.build("fz-relabeled",
			func(i int) string { return fmt.Sprintf("state_%d", ps[i]) },
			func(i int) string { return fmt.Sprintf("op_%d", po[i]) },
			func(i int) string { return fmt.Sprintf("resp_%d", pr[i]) })
		if err := orig.Validate(); err != nil {
			t.Fatalf("decoder built an invalid table: %v", err)
		}

		const n = 2
		checkFingerprints(t, orig, n)
		checkFingerprints(t, relabeled, n)
		fpO, okO := CanonicalFingerprint(orig, n)
		fpR, okR := CanonicalFingerprint(relabeled, n)
		if okO != okR {
			t.Fatalf("canonicalizability differs under relabeling: %v vs %v", okO, okR)
		}
		if okO && fpO != fpR {
			t.Fatalf("canonical fingerprint not invariant under relabeling:\n%s\nvs\n%s", fpO, fpR)
		}

		// Determinism: both fingerprint flavours are pure functions.
		if fp2, _ := CanonicalFingerprint(orig, n); fp2 != fpO {
			t.Fatalf("CanonicalFingerprint nondeterministic: %s vs %s", fpO, fp2)
		}
		exact1, ok1 := Fingerprint(orig, n)
		exact2, ok2 := Fingerprint(orig, n)
		if ok1 != ok2 || exact1 != exact2 {
			t.Fatalf("Fingerprint nondeterministic: (%s,%v) vs (%s,%v)", exact1, ok1, exact2, ok2)
		}
	})
}

// parityEngine is shared across fuzz iterations, as rcserve shares one
// engine across requests.
var parityEngine = New(Options{Workers: 4})

// FuzzClassifyParity checks the engine's core contract on arbitrary
// small types: the sharded concurrent classification must be
// byte-identical to the sequential checker's.
func FuzzClassifyParity(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x01\x01\x01\x00\x01\x00\x00\x01\x01\x01\x01\x00"))
	f.Add([]byte("\x01\x00\x01\x00\x01\x01\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, ok := decodeTable(data)
		if !ok {
			t.Skip()
		}
		typ := ft.build("fzp",
			func(i int) string { return fmt.Sprintf("s%d", i) },
			func(i int) string { return fmt.Sprintf("a%d", i) },
			func(i int) string { return fmt.Sprintf("r%d", i) })
		if err := typ.Validate(); err != nil {
			t.Fatalf("decoder built an invalid table: %v", err)
		}

		const limit = 3
		seq, seqErr := checker.Classify(typ, limit)
		par, parErr := parityEngine.Classify(context.Background(), typ, limit)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("error parity broken: sequential=%v, engine=%v", seqErr, parErr)
		}
		if seqErr != nil {
			t.Skip()
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("engine diverged from sequential checker:\nseq: %+v\npar: %+v", seq, par)
		}
	})
}

// TestCanonicalFingerprintZoo sanity-checks the canonical fingerprint on
// real types: defined for the small zoo members, stable across calls,
// and distinct for structurally different types.
func TestCanonicalFingerprintZoo(t *testing.T) {
	fps := map[string]string{}
	for _, typ := range []spec.Type{types.NewCAS(), types.NewSn(2), types.NewSn(3), types.NewCounter(3)} {
		fp, ok := CanonicalFingerprint(typ, 2)
		if !ok {
			t.Fatalf("%s not canonicalizable", typ.Name())
		}
		fp2, _ := CanonicalFingerprint(typ, 2)
		if fp != fp2 {
			t.Fatalf("%s canonical fingerprint unstable", typ.Name())
		}
		fps[typ.Name()] = fp
	}
	if fps["S_2"] == fps["S_3"] {
		t.Fatal("S_2 and S_3 share a canonical fingerprint")
	}
}

// searchResultSeeds cover the corners where readSearchResult could part
// from encoding/json: folded and repeated keys, nulls in every
// position, a repeated witness merging into the first, arrays decoding
// over earlier ones, numbers that are not ints, escapes, invalid UTF-8,
// trailing data and nesting.
var searchResultSeeds = []string{
	`{"found":true,"witness":{"q0":"s1","teams":[0,1],"ops":["o0","o1"]}}`,
	`{"found":true,"witness":{"q0":"s1","teams":[0,1,0],"ops":["o0","o1","o0"]}}`,
	`{"found":false}`,
	` { "found" : false , "witness" : null } `,
	`null`,

	// Keys: folded (K U+212A folds to k, ſ to s), and near misses.
	`{"FOUND":true,"Witness":{"Q0":"s","TEAMS":[0,1],"oPs":["a","b"]}}`,
	`{"found":true,"witneſſ":{"q0":"s","teamſ":[0,1],"opſ":["a","b"]}}`,
	`{"found":true,"witness":{"q0":"s","teams":[0,1],"ops":["a","b"]},"founds":false,"found ":false}`,
	`{"f\u006fund":true,"witness":{"\u00710":"s","teams":[0,1],"ops":["a","b"]}}`,

	// Repeated keys: last wins, a repeated witness decodes into the
	// first, and a repeated array over the earlier one's elements.
	`{"found":false,"found":true,"witness":{"q0":"s","teams":[0,1],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"q0":"s","teams":[0,1]},"witness":{"ops":["a","b"]}}`,
	`{"found":true,"witness":{"q0":"s","teams":[0,1],"ops":["a","b"]},"witness":null}`,
	`{"found":true,"witness":{"teams":[1,0,1],"teams":[0],"teams":[null,null],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[1,0,1],"teams":[],"teams":[null,null],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[0,1],"ops":["a","b","c"],"ops":["x"],"ops":[null,null]}}`,
	`{"found":true,"witness":{"teams":[0,1],"ops":["a","b"],"ops":null}}`,

	// Nulls and values of the wrong type.
	`{"found":null,"witness":{"q0":null,"teams":[0,1],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"q0":null,"teams":null,"ops":null}}`,
	`{"found":1}`,
	`{"found":"true"}`,
	`{"found":true,"witness":[]}`,
	`{"found":true,"witness":"w"}`,
	`{"found":true,"witness":{"q0":1,"teams":[0,1],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":{},"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[0,1],"ops":[1,2]}}`,
	`[]`,
	`"x"`,
	`true`,

	// Team labels and numbers.
	`{"found":true,"witness":{"teams":[0,2],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[-1,1],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[1.0,0],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[1e0,0],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[-0,1],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[9223372036854775808,1],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[01,1],"ops":["a","b"]}}`,

	// Escapes and invalid UTF-8.
	`{"found":true,"witness":{"q0":"a\"b\\c\u00e9\ud83d\ude00","teams":[0,1],"ops":["\u0061","b\/"]}}`,
	`{"found":true,"witness":{"q0":"\ud800","teams":[0,1],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"q0":"\x","teams":[0,1],"ops":["a","b"]}}`,
	"{\"found\":true,\"witness\":{\"q0\":\"\xff\",\"teams\":[0,1],\"ops\":[\"\xc3\",\"b\"]}}",
	"{\"found\":true,\"witness\":{\"q0\":\"a\x01\",\"teams\":[0,1],\"ops\":[\"a\",\"b\"]}}",

	// Trailing data, trailing commas, truncations.
	`{"found":false} x`,
	`{"found":false}}`,
	`{"found":false,}`,
	`{"found":true,"witness":{"teams":[0,1,],"ops":["a","b"]}}`,
	`{"found":true,"witness":{"teams":[0,1],"ops":["a","b"]`,
	``,
	`{`,

	// Nesting in an unknown field.
	`{"x":` + strings.Repeat(`[{"a":`, 40) + `[]` + strings.Repeat("}]", 40) + `,"found":false}`,
	`{"x":` + strings.Repeat(`[{"a":`, 40) + `[}` + strings.Repeat("}]", 40) + `,"found":false}`,
}

// FuzzSearchResult holds readSearchResult to json.Unmarshal into a
// persistedSearch: the same entries accepted, and on those the same
// found flag and witness; and decodeSearchResult to that decode plus
// its checks.
func FuzzSearchResult(f *testing.F) {
	for _, s := range searchResultSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want persistedSearch
		wantErr := json.Unmarshal(data, &want)
		found, w, err := readSearchResult(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%.200q:\nreader error: %v\njson.Unmarshal error: %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		var ww *checker.Witness
		if want.Witness != nil {
			ww = &checker.Witness{Q0: spec.State(want.Witness.Q0), Teams: want.Witness.Teams}
			if want.Witness.Ops != nil {
				ww.Ops = make([]spec.Op, len(want.Witness.Ops))
				for i, op := range want.Witness.Ops {
					ww.Ops[i] = spec.Op(op)
				}
			}
		}
		if found != want.Found || !reflect.DeepEqual(w, ww) {
			t.Fatalf("%.200q: decoded found=%v %#v, want found=%v %#v", data, found, w, want.Found, ww)
		}
		for n := 2; n <= 3; n++ {
			wantOK := !want.Found || ww != nil && len(ww.Teams) == n && len(ww.Ops) == n &&
				!slices.ContainsFunc(ww.Teams, func(t int) bool { return t != checker.TeamA && t != checker.TeamB })
			if got, ok := decodeSearchResult(data, n); ok != wantOK || ok && want.Found != (got != nil) {
				t.Fatalf("%.200q at n=%d: ok=%v witness=%v, want ok=%v", data, n, ok, got, wantOK)
			}
		}
	})
}
