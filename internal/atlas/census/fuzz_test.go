package census

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/checker"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// decodeFuzzTable interprets raw bytes as a dense generator spec:
// byte 0 → states (1..4), byte 1 → ops (1..3), byte 2 → resps (1..3),
// then 2 bytes per cell. The same bytes always decode to the same
// table, so findings are reproducible.
func decodeFuzzTable(data []byte) (*atlas.Table, bool) {
	if len(data) < 3 {
		return nil, false
	}
	states := int(data[0])%4 + 1
	ops := int(data[1])%3 + 1
	resps := int(data[2])%3 + 1
	cells := states * ops
	if len(data) < 3+2*cells {
		return nil, false
	}
	next := make([]uint8, cells)
	resp := make([]uint8, cells)
	for i := 0; i < cells; i++ {
		next[i] = data[3+2*i] % uint8(states)
		resp[i] = data[4+2*i] % uint8(resps)
	}
	t, err := atlas.NewTable(states, ops, resps, next, resp)
	if err != nil {
		return nil, false
	}
	return t, true
}

// rawArrays reads a Table's flat next/resp arrays back through its
// spec.Type methods (states, operations and responses are named s<i>,
// o<i> and r<i>).
func rawArrays(t *testing.T, tbl *atlas.Table) (next, resp []uint8) {
	states := tbl.InitialStates()
	stateIdx := map[spec.State]uint8{}
	for i, s := range states {
		stateIdx[s] = uint8(i)
	}
	respIdx := map[spec.Response]uint8{}
	for r := 0; r < tbl.NumResps(); r++ {
		respIdx[spec.Response(fmt.Sprintf("r%d", r))] = uint8(r)
	}
	for _, s := range states {
		for _, op := range tbl.Ops() {
			ns, r, err := tbl.Apply(s, op)
			if err != nil {
				t.Fatalf("Apply(%s, %s): %v", s, op, err)
			}
			next = append(next, stateIdx[ns])
			resp = append(resp, respIdx[r])
		}
	}
	return next, resp
}

// referenceKey is the canonical key by its definition: the hex of the
// lexicographically least encoding [S, O, R', next…, resp…] over every
// state and operation relabeling of the raw arrays, with responses
// renamed by first occurrence. It shares no code with package atlas.
func referenceKey(S, O int, next, resp []uint8) string {
	var best []byte
	for _, ps := range perms(S) {
		for _, po := range perms(O) {
			enc := make([]byte, 3+2*S*O)
			ren := map[uint8]byte{}
			for s := 0; s < S; s++ {
				for o := 0; o < O; o++ {
					enc[3+ps[s]*O+po[o]] = byte(ps[next[s*O+o]])
				}
			}
			pr := enc[3+S*O:]
			for s := 0; s < S; s++ {
				for o := 0; o < O; o++ {
					pr[ps[s]*O+po[o]] = resp[s*O+o]
				}
			}
			for i, r := range pr {
				if _, ok := ren[r]; !ok {
					ren[r] = byte(len(ren))
				}
				pr[i] = ren[r]
			}
			enc[0], enc[1], enc[2] = byte(S), byte(O), byte(len(ren))
			if best == nil || bytes.Compare(enc, best) < 0 {
				best = enc
			}
		}
	}
	return hex.EncodeToString(best)
}

// perms lists every permutation of 0..k-1.
func perms(k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range perms(k - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), k-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// FuzzAtlasDecode feeds arbitrary bytes through both decode paths of
// the atlas pipeline — Custom JSON import and the dense generator
// spec — and checks the invariants the census relies on: valid inputs
// validate, classify at n = 2 without panicking, the canonical key is
// the brute-force minimum over the table's raw arrays, and canonical
// dedup is idempotent (the canonical form of a canonical form is
// itself).
func FuzzAtlasDecode(f *testing.F) {
	// JSON seeds: a valid two-state table, a non-readable variant, and
	// near-miss malformed inputs.
	f.Add([]byte(`{"name":"t","initial":["a"],"transitions":{"a":{"op":{"next":"b","resp":"x"}},"b":{"op":{"next":"b","resp":"y"}}}}`))
	f.Add([]byte(`{"name":"t","readable":false,"transitions":{"a":{"op":{"next":"a","resp":"x"}}}}`))
	f.Add([]byte(`{"name":"t","transitions":{"a":{"op":{"next":"MISSING","resp":"x"}}}}`))
	f.Add([]byte(`{"name":"","transitions":{}}`))
	// Dense generator-spec seeds.
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x00, 0x00, 0x01})
	f.Add([]byte{0x03, 0x02, 0x02, 0x00, 0x01, 0x02, 0x00, 0x01, 0x01, 0x00, 0x00, 0x02, 0x01, 0x00, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		var typ interface {
			Name() string
		}
		var tbl *atlas.Table
		if c, err := types.NewCustomFromJSON(data); err == nil {
			// JSON path: Validate accepted the table; it must classify
			// and densify without panicking (within small caps).
			if len(c.Transitions) > 16 || len(c.Ops()) > 6 {
				t.Skip()
			}
			if _, err := checker.Classify(c, 2); err != nil {
				t.Fatalf("validated Custom failed to classify: %v", err)
			}
			dense, err := atlas.FromType(c, 2, 64)
			if err != nil {
				t.Skip() // oversized response alphabet etc.
			}
			tbl = dense
			typ = c
		} else {
			dense, ok := decodeFuzzTable(data)
			if !ok {
				t.Skip()
			}
			if _, err := checker.Classify(dense, 2); err != nil {
				t.Fatalf("generated table failed to classify: %v", err)
			}
			tbl = dense
			typ = dense
		}

		key, ok := tbl.CanonicalKey()
		if !ok {
			t.Skip() // above the canonicalization caps
		}
		next, resp := rawArrays(t, tbl)
		if want := referenceKey(tbl.NumStates(), tbl.NumOps(), next, resp); key != want {
			t.Fatalf("%s: CanonicalKey %s, brute-force minimum of the raw arrays %s", typ.Name(), key, want)
		}
		canon, ok := tbl.Canonical()
		if !ok {
			t.Fatalf("%s: CanonicalKey ok but Canonical failed", typ.Name())
		}
		again, ok := canon.CanonicalKey()
		if !ok || again != key {
			t.Fatalf("%s: canonical dedup not idempotent: %q vs %q", typ.Name(), key, again)
		}
		canon2, ok := canon.Canonical()
		if !ok {
			t.Fatalf("%s: canonical form not canonicalizable", typ.Name())
		}
		k2, _ := canon2.CanonicalKey()
		if k2 != key {
			t.Fatalf("%s: double canonicalization drifted: %q vs %q", typ.Name(), key, k2)
		}
	})
}
