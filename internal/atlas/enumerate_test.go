package atlas

import (
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
)

// oracleEnumerate is the enumeration loop Enumerate replaced, kept as a
// parity oracle: it builds a named Table for every raw table, calls
// CanonicalWithKey on it and dedups on the hex key. Its odometer and
// its recursive restricted-growth visitor are independent of
// Enumerate's iterative ones.
func oracleEnumerate(b Bounds, yield func(key string, t *Table)) (raw, kept int) {
	seen := map[string]bool{}
	for s := 1; s <= b.States; s++ {
		for o := 1; o <= b.Ops; o++ {
			cells := s * o
			next := make([]uint8, cells)
			resp := make([]uint8, cells)
			for {
				oracleRGS(resp, b.Resps, func(used int) {
					raw++
					t, err := NewTable(s, o, used, next, resp)
					if err != nil {
						panic(err)
					}
					canon, key, _ := t.CanonicalWithKey()
					if seen[key] {
						return
					}
					seen[key] = true
					kept++
					yield(key, canon.WithLabel("atlas:"+key))
				})
				i := 0
				for ; i < cells; i++ {
					next[i]++
					if int(next[i]) < s {
						break
					}
					next[i] = 0
				}
				if i == cells {
					break
				}
			}
		}
	}
	return raw, kept
}

// oracleRGS visits every restricted-growth string over resp with at
// most rmax classes, depth first, passing the number of classes used.
func oracleRGS(resp []uint8, rmax int, visit func(used int)) {
	var rec func(i, used int)
	rec = func(i, used int) {
		if i == len(resp) {
			visit(used)
			return
		}
		for v := 0; v <= min(used, rmax-1); v++ {
			resp[i] = uint8(v)
			nu := used
			if v == used {
				nu++
			}
			rec(i+1, nu)
		}
	}
	rec(0, 0)
}

// referenceKey minimizes a raw table by brute force with fresh buffers
// and freshly built permutations: the definition of the canonical
// encoding, independent of the canonicalizer's scratch reuse and of the
// shared permutation tables.
func referenceKey(S, O int, next, resp []uint8) string {
	var best []byte
	for _, ps := range buildPermutations(S) {
		for _, po := range buildPermutations(O) {
			enc := make([]byte, 3+2*S*O)
			pn, pr := enc[3:3+S*O], enc[3+S*O:]
			for s := 0; s < S; s++ {
				for o := 0; o < O; o++ {
					pn[ps[s]*O+po[o]] = byte(ps[next[s*O+o]])
					pr[ps[s]*O+po[o]] = resp[s*O+o]
				}
			}
			ren := map[byte]byte{}
			for i, r := range pr {
				if _, ok := ren[r]; !ok {
					ren[r] = byte(len(ren))
				}
				pr[i] = ren[r]
			}
			enc[0], enc[1], enc[2] = byte(S), byte(O), byte(len(ren))
			if best == nil || slices.Compare(enc, best) < 0 {
				best = enc
			}
		}
	}
	return hex.EncodeToString(best)
}

// TestEnumerateMatchesOracle: the byte-level Enumerate yields exactly
// what the per-table loop did — the same raw and kept counts, the same
// key sequence, and tables equal in name, dimensions and exported
// JSON — and every key is the brute-force minimum of its table.
func TestEnumerateMatchesOracle(t *testing.T) {
	for _, b := range []Bounds{
		{States: 3, Ops: 2, Resps: 2},
		{States: 2, Ops: 3, Resps: 3},
		{States: 1, Ops: 1, Resps: 3},
		{States: 2, Ops: 1, Resps: 3},
		{States: 3, Ops: 1, Resps: 3},
	} {
		type yielded struct {
			key, name, dims string
			custom          []byte
		}
		record := func(out *[]yielded) func(string, *Table) {
			return func(key string, tbl *Table) {
				custom, err := json.Marshal(tbl.Custom())
				if err != nil {
					t.Fatal(err)
				}
				*out = append(*out, yielded{key, tbl.Name(), tbl.Dims(), custom})
				if ref := referenceKey(tbl.states, tbl.ops, tbl.next, tbl.resp); ref != key {
					t.Fatalf("%v: key %s, brute-force minimum %s", b, key, ref)
				}
			}
		}
		var want, got []yielded
		wantRaw, wantKept := oracleEnumerate(b, record(&want))
		rec := record(&got)
		raw, kept, err := Enumerate(b, func(key string, tbl *Table) bool {
			rec(key, tbl)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if raw != wantRaw || kept != wantKept {
			t.Fatalf("%v: raw/kept = %d/%d, oracle %d/%d", b, raw, kept, wantRaw, wantKept)
		}
		for i := range want {
			if got[i].key != want[i].key || got[i].name != want[i].name || got[i].dims != want[i].dims ||
				string(got[i].custom) != string(want[i].custom) {
				t.Fatalf("%v: class %d differs:\n got  %s %s %s %s\n want %s %s %s %s", b, i,
					got[i].key, got[i].name, got[i].dims, got[i].custom,
					want[i].key, want[i].name, want[i].dims, want[i].custom)
			}
		}
	}
}

// TestEnumerateStopsEarly: a yield returning false stops the
// enumeration at once, with the counts reached so far.
func TestEnumerateStopsEarly(t *testing.T) {
	calls := 0
	raw, kept, err := Enumerate(Bounds{States: 3, Ops: 2, Resps: 2}, func(string, *Table) bool {
		calls++
		return calls < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || kept != 5 || raw < kept || raw >= 23575 {
		t.Fatalf("stopped with calls %d, raw %d, kept %d", calls, raw, kept)
	}
}

// TestCanonicalizerReuse: one canonicalizer minimizing tables of
// varying dimensions in turn, as Enumerate's reused scratch does,
// agrees with the brute-force minimum on every table.
func TestCanonicalizerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var c canonicalizer
	for trial := 0; trial < 500; trial++ {
		tbl := Random(rng, 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(4))
		enc, ok := c.minimize(tbl.states, tbl.ops, tbl.resps, tbl.next, tbl.resp)
		if !ok {
			t.Fatalf("trial %d: %s over the caps", trial, tbl.Dims())
		}
		if got, want := hex.EncodeToString(enc), referenceKey(tbl.states, tbl.ops, tbl.next, tbl.resp); got != want {
			t.Fatalf("trial %d: %s: reused scratch gave %s, brute force %s", trial, tbl.Dims(), got, want)
		}
	}
}

// TestPermutationsShared: the shared tables hold every permutation in
// lexicographic order, and repeated calls return the same table.
func TestPermutationsShared(t *testing.T) {
	for k := 0; k <= CanonMaxStates+1; k++ {
		got := Permutations(k)
		want := 1
		for i := 2; i <= k; i++ {
			want *= i
		}
		if len(got) != want {
			t.Fatalf("k=%d: %d permutations, want %d", k, len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if slices.Compare(got[i-1], got[i]) >= 0 {
				t.Fatalf("k=%d: not in lexicographic order at %d", k, i)
			}
		}
		if k >= 1 && k <= CanonMaxStates && &Permutations(k)[0][0] != &got[0][0] {
			t.Fatalf("k=%d: table rebuilt on a second call", k)
		}
	}
}

// enumerateAllocsPerKept bounds Enumerate's allocations per canonical
// class: about six per kept class (the dedup key, the hex key, its
// label, the Table and its arrays) plus the map's growth. Raw tables,
// ten times as many as classes in {3,2,2}, must allocate nothing.
const enumerateAllocsPerKept = 10

// TestEnumerateAllocsScaleWithKept: Enumerate's allocations grow with
// the number of kept classes, not with the number of raw tables.
func TestEnumerateAllocsScaleWithKept(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	b := Bounds{States: 3, Ops: 2, Resps: 2}
	raw, kept, _ := Enumerate(b, func(string, *Table) bool { return true })
	allocs := testing.AllocsPerRun(3, func() {
		Enumerate(b, func(string, *Table) bool { return true })
	})
	if limit := float64(enumerateAllocsPerKept*kept + 100); allocs > limit {
		t.Fatalf("Enumerate(%v): %.0f allocs for %d raw tables and %d classes, want ≤ %.0f",
			b, allocs, raw, kept, limit)
	}
}

// BenchmarkEnumerate enumerates the 3-state, 2-op, 2-response block the
// census benchmark's exhaustive stage uses.
func BenchmarkEnumerate(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Enumerate(Bounds{States: 3, Ops: 2, Resps: 2}, func(string, *Table) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}
