package atlas

import (
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracleRaw visits every raw table of b in odometer × restricted-growth
// order, passing its dimensions, the number of responses it uses and
// its arrays (valid only during the call). Its odometer and its
// recursive restricted-growth visitor are independent of Enumerate's
// iterative ones.
func oracleRaw(b Bounds, visit func(s, o, used int, next, resp []uint8)) {
	for s := 1; s <= b.States; s++ {
		for o := 1; o <= b.Ops; o++ {
			cells := s * o
			next := make([]uint8, cells)
			resp := make([]uint8, cells)
			for {
				oracleRGS(resp, b.Resps, func(used int) { visit(s, o, used, next, resp) })
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
}

// oracleEnumerate is the enumeration loop Enumerate replaced, kept as a
// set oracle: it builds a named Table for every raw table, calls
// CanonicalWithKey on it and dedups on the hex key, yielding each class
// at its first raw table.
func oracleEnumerate(b Bounds, yield func(key string, t *Table)) (raw, kept int) {
	seen := map[string]bool{}
	oracleRaw(b, func(s, o, used int, next, resp []uint8) {
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
	return raw, kept
}

// sequenceOracle lists, in odometer × restricted-growth order, the keys
// of the raw tables of b whose bytes equal their brute-force canonical
// encoding (referenceKey), stopping after stop of them (never, when
// stop < 0). raw is the number of raw tables visited through the last
// one listed, or all of them when there is no stop.
func sequenceOracle(b Bounds, stop int) (keys []string, raw int) {
	oracleRaw(b, func(s, o, used int, next, resp []uint8) {
		if len(keys) == stop {
			return
		}
		raw++
		own := hex.EncodeToString(slices.Concat([]byte{byte(s), byte(o), byte(used)}, next, resp))
		if referenceKey(s, o, next, resp) == own {
			keys = append(keys, own)
		}
	})
	return keys, raw
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
// and separately built permutations: the definition of the canonical
// encoding, independent of the canonicalizer's scratch reuse and of the
// shared permutation tables.
func referenceKey(S, O int, next, resp []uint8) string {
	var best []byte
	enc := make([]byte, 3+2*S*O)
	pn, pr := enc[3:3+S*O], enc[3+S*O:]
	for _, ps := range referencePermutations()[S] {
		for _, po := range referencePermutations()[O] {
			for s := 0; s < S; s++ {
				for o := 0; o < O; o++ {
					pn[ps[s]*O+po[o]] = byte(ps[next[s*O+o]])
					pr[ps[s]*O+po[o]] = resp[s*O+o]
				}
			}
			var ren [256]int // old response → 1 + new response; 0 while unseen
			used := 0
			for i, r := range pr {
				if ren[r] == 0 {
					used++
					ren[r] = used
				}
				pr[i] = byte(ren[r] - 1)
			}
			enc[0], enc[1], enc[2] = byte(S), byte(O), byte(used)
			if best == nil || slices.Compare(enc, best) < 0 {
				best = slices.Clone(enc)
			}
		}
	}
	return hex.EncodeToString(best)
}

// referencePermutations holds buildPermutations(k) for k ≤
// CanonMaxStates, built apart from the shared tables permutations
// returns.
var referencePermutations = sync.OnceValue(func() [][][]int {
	t := make([][][]int, CanonMaxStates+1)
	for k := range t {
		t[k] = buildPermutations(k)
	}
	return t
})

// TestEnumerateMatchesOracle: Enumerate yields the classes the
// per-table loop did — the same raw and kept counts, the same key set,
// and for each key a table equal in name, dimensions and exported JSON
// — in exactly the sequence oracle's order: each class at the raw
// table whose bytes are its brute-force canonical encoding.
func TestEnumerateMatchesOracle(t *testing.T) {
	for _, b := range []Bounds{
		{States: 3, Ops: 2, Resps: 2},
		{States: 2, Ops: 3, Resps: 3},
		{States: 1, Ops: 1, Resps: 3},
		{States: 2, Ops: 1, Resps: 3},
		{States: 3, Ops: 1, Resps: 3},
		{States: 3, Ops: 2, Resps: 3},
		{States: 4, Ops: 2, Resps: 1},
		{States: 2, Ops: 2, Resps: 4},
	} {
		type yielded struct{ name, dims, custom string }
		describe := func(tbl *Table) yielded {
			custom, err := json.Marshal(tbl.Custom())
			if err != nil {
				t.Fatal(err)
			}
			return yielded{tbl.Name(), tbl.Dims(), string(custom)}
		}
		want := map[string]yielded{}
		wantRaw, wantKept := oracleEnumerate(b, func(key string, tbl *Table) { want[key] = describe(tbl) })
		var got []string
		raw, kept, err := Enumerate(b, func(key string, tbl *Table) bool {
			w, ok := want[key]
			if !ok {
				t.Fatalf("%v: key %s is no class of the oracle", b, key)
			}
			if d := describe(tbl); d != w {
				t.Fatalf("%v: class %s differs:\n got  %v\n want %v", b, key, d, w)
			}
			delete(want, key) // a second yield of the key fails above
			got = append(got, key)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if raw != wantRaw || kept != wantKept || len(want) != 0 {
			t.Fatalf("%v: raw/kept = %d/%d, oracle %d/%d; %d oracle classes not yielded",
				b, raw, kept, wantRaw, wantKept, len(want))
		}
		seq, seqRaw := sequenceOracle(b, -1)
		if seqRaw != raw || !slices.Equal(got, seq) {
			t.Fatalf("%v: key sequence differs from the sequence oracle (raw %d vs %d, %d vs %d keys)",
				b, raw, seqRaw, len(got), len(seq))
		}
	}
}

// TestEnumerateStopsEarly: a yield returning false stops the
// enumeration at once, with the counts reached so far: raw counts every
// raw table through the stopping one, skipped blocks included.
func TestEnumerateStopsEarly(t *testing.T) {
	b := Bounds{States: 3, Ops: 2, Resps: 2}
	for _, stop := range []int{1, 5, 40} {
		calls := 0
		raw, kept, err := Enumerate(b, func(string, *Table) bool {
			calls++
			return calls < stop
		})
		if err != nil {
			t.Fatal(err)
		}
		keys, wantRaw := sequenceOracle(b, stop)
		if calls != stop || kept != stop || len(keys) != stop || raw != wantRaw {
			t.Fatalf("stop at %d: calls %d, raw %d, kept %d; sequence oracle raw %d over %d keys",
				stop, calls, raw, kept, wantRaw, len(keys))
		}
	}
}

// TestEnumerateCounts332 pins the {3,3,2} universe: 5,064,475 raw tables
// (Bounds.RawCount) in 144,677 relabeling classes.
func TestEnumerateCounts332(t *testing.T) {
	b := Bounds{States: 3, Ops: 3, Resps: 2}
	raw, kept, err := Enumerate(b, func(string, *Table) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if raw != 5_064_475 || int64(raw) != b.RawCount() || kept != 144_677 {
		t.Fatalf("%v: raw %d (RawCount %d), kept %d; want 5064475 raw, 144677 classes", b, raw, b.RawCount(), kept)
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
// class: four per kept class (the label's buffer and its string, of
// which the key is a substring, the Table and its arrays), measured at
// 4.02 in {3,2,2}, plus about 20% headroom. Raw tables, eleven times as many as classes
// there, and skipped blocks must allocate nothing.
const enumerateAllocsPerKept = 5

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
