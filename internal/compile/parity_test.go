package compile_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/checker"
	"rcons/internal/compile"
	"rcons/internal/engine"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// TestCompiledParity is the differential battery for the compiled core:
// for every zoo type plus a sample of random tables, classify via the
// default (compiled + symmetry-pruned) engine and via the sequential
// interpreted scan (checker.Classify), which shares no code with the
// engine's shard loop, and require bit-identical classifications —
// same verdicts, same levels, same canonical witnesses. CanonicalFingerprint
// of a type and of its compiled view must also agree, since the view
// renders the same strings.
func TestCompiledParity(t *testing.T) {
	limit := 4
	samples := 40
	if testing.Short() {
		limit = 3
		samples = 15
	}

	compiled := engine.New(engine.Options{Workers: 4})
	ctx := context.Background()

	targets := types.Zoo()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < samples; i++ {
		tbl := atlas.Random(rng, 2+rng.Intn(3), 2+rng.Intn(2), 2+rng.Intn(2))
		targets = append(targets, tbl)
	}

	for _, typ := range targets {
		got, err := compiled.Classify(ctx, typ, limit)
		if err != nil {
			t.Fatalf("%s: compiled classify: %v", typ.Name(), err)
		}
		want, err := checker.Classify(typ, limit)
		if err != nil {
			t.Fatalf("%s: sequential classify: %v", typ.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled %+v != sequential %+v", typ.Name(), got, want)
		}

		// The compiled view must be indistinguishable at the
		// fingerprint level too: identical rendered artifacts.
		c, err := compile.Compile(typ, 2)
		if err != nil {
			continue
		}
		fp1, ok1 := engine.CanonicalFingerprint(typ, 2)
		fp2, ok2 := engine.CanonicalFingerprint(c.Type(), 2)
		if ok1 != ok2 || fp1 != fp2 {
			t.Errorf("%s: fingerprint of view diverged: (%q,%v) != (%q,%v)", typ.Name(), fp2, ok2, fp1, ok1)
		}
	}
}

// FuzzCompiledApply cross-checks the dense-table Apply against the
// interpreted source on arbitrary tables and arbitrary (state, op)
// indices, plus the spec.Type view's string-level Apply.
func FuzzCompiledApply(f *testing.F) {
	f.Add([]byte{3, 2, 2, 1, 0, 0, 1, 1, 2, 0, 0, 1, 1, 0}, uint16(1), uint16(1))
	f.Add([]byte{1, 1, 1, 0, 0, 0}, uint16(0), uint16(0))
	f.Add([]byte{4, 3, 3, 2, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint16(7), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, si, oi uint16) {
		src := decodeCustom(data)
		if src == nil {
			return
		}
		c, err := compile.Compile(src, 2)
		if err != nil {
			return // non-total or oversized tables are out of scope
		}
		si = si % uint16(c.NumStates())
		oi = oi % uint16(c.NumOps())
		ni, ri := c.Apply(si, oi)
		ns, r, err := src.Apply(c.StateAt(si), c.OpAt(oi))
		if err != nil {
			t.Fatalf("interpreted Apply(%q, %s): %v", c.StateAt(si), c.OpAt(oi), err)
		}
		if c.StateAt(ni) != ns || c.RespAt(ri) != r {
			t.Fatalf("Apply(%q, %s): compiled (%q, %q) != interpreted (%q, %q)",
				c.StateAt(si), c.OpAt(oi), c.StateAt(ni), c.RespAt(ri), ns, r)
		}
		vns, vr, verr := c.Type().Apply(c.StateAt(si), c.OpAt(oi))
		if verr != nil || vns != ns || vr != r {
			t.Fatalf("view Apply(%q, %s) = (%q, %q, %v), want (%q, %q, nil)",
				c.StateAt(si), c.OpAt(oi), vns, vr, verr, ns, r)
		}
	})
}

// decodeCustom builds a small total transition table from fuzz bytes:
// header [nStates, nOps, nResps, init], then two bytes per (state, op)
// cell selecting the successor state and the response. Returns nil when
// the data is too short to fill the table.
func decodeCustom(data []byte) *types.Custom {
	if len(data) < 4 {
		return nil
	}
	nStates := int(data[0])%4 + 1
	nOps := int(data[1])%3 + 1
	nResps := int(data[2])%3 + 1
	init := int(data[3]) % nStates
	body := data[4:]
	if len(body) < 2*nStates*nOps {
		return nil
	}
	stateName := func(i int) string { return string(rune('a' + i)) }
	cu := &types.Custom{
		TypeName:    "fuzz",
		Initial:     []string{stateName(init)},
		Transitions: map[string]map[string]types.CustomEdge{},
	}
	k := 0
	for s := 0; s < nStates; s++ {
		row := map[string]types.CustomEdge{}
		for o := 0; o < nOps; o++ {
			next := int(body[k]) % nStates
			resp := int(body[k+1]) % nResps
			k += 2
			row[string(spec.FormatOp("op", string(rune('A'+o))))] = types.CustomEdge{
				Next: stateName(next),
				Resp: string(rune('r' + resp)),
			}
		}
		cu.Transitions[stateName(s)] = row
	}
	return cu
}
