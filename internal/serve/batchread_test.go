package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/types"
)

// batchRequestSeeds cover the corners where a hand reader could part
// from encoding/json: escaped and folded keys, repeated keys, nulls in
// every position, limits that are not ints, items that are not
// objects, bad escapes, control characters, invalid UTF-8, trailing
// data and trailing commas, and nesting at encoding/json's depth cap.
var batchRequestSeeds = []string{
	`{"limit": 3, "items": [{"type": "S_3"}, {"table": {"name":"c","initial":["q0"],"transitions":{"q0":{"op":{"next":"q0","resp":"a"}}}}}]}`,
	"{\n\t\"limit\" : 4 ,\r\n \"items\" : [ { \"table\" : { \"a\" : [ 1 , -2.5e+3 , true , false , null ] } } ] }\n",
	`{"items": [{"type": "S_3", "extra": {"x": [1, {"y": "z"}]}}], "other": [null]}`,

	// Keys: escaped, folded (ſ folds to S, K U+212A to K), and the
	// dotted and dotless i, which simple folding keeps apart from i.
	`{"\u0069tems": [{"\u0074ype": "S_3"}], "li\u006dit": 3}`,
	`{"ITEMS": [{"TYPE": "S_3"}, {"Table": 1}], "LiMiT": 3}`,
	`{"itemſ": [{"tyPe": "S_3"}], "limit": 3}`,
	`{"items": [{"type": "S_3", "Kind": 1, "\u212Aind": 2}]}`,
	`{"İtems": [{"type": "S_3"}], "ıtems": [{"type": "x"}]}`,
	`{"items": [{"type": "S_3"}], "items ": 5, "item": 6, "itemss": 7}`,
	`{"\u0000items": [], "items\ud800": [], "items": [{"type": "S_3"}]}`,

	// Repeated keys: last wins, and a later array decodes over the
	// earlier one's elements while its capacity lasts.
	`{"limit": 3, "limit": 4, "items": [{"type": "a"}]}`,
	`{"items": [{"type": "a"}, {"type": "b"}], "items": [{}]}`,
	`{"items": [{"type": "a"}, {"type": "b"}], "items": [{}], "items": [{}, {}]}`,
	`{"items": [{"type": "a"}, {"type": "b"}], "items": [], "items": [{}, {}]}`,
	`{"items": [{"type": "a", "type": null}, {"table": 1, "table": {"x": 2}}]}`,
	`{"items": [{"type": "a", "table": [1]}], "items": [{"type": "b"}, {"table": null}]}`,

	// Nulls everywhere.
	`null`,
	` null `,
	`{"limit": null, "items": null}`,
	`{"items": [null, {"type": null, "table": null}]}`,
	`{"items": [{"type": "a"}], "items": null}`,
	`{"items": [{"type": "a"}], "items": [null]}`,
	`{"limit": 3, "limit": null, "items": [{"type": "a"}]}`,

	// Limits.
	`{"limit": 3.0, "items": [{"type": "a"}]}`,
	`{"limit": 3e0}`,
	`{"limit": -0}`,
	`{"limit": -7}`,
	`{"limit": 9223372036854775807}`,
	`{"limit": 9223372036854775808}`,
	`{"limit": -9223372036854775809}`,
	`{"limit": "3"}`,
	`{"limit": true}`,
	`{"limit": [3]}`,
	`{"limit": {}}`,
	`{"limit": 01}`,
	`{"limit": -}`,
	`{"limit": 1.}`,
	`{"limit": 1e}`,
	`{"limit": +1}`,
	`{"limit": .5}`,

	// Values of the wrong type.
	`{"items": [1]}`,
	`{"items": ["S_3"]}`,
	`{"items": [[]]}`,
	`{"items": [true]}`,
	`{"items": {}}`,
	`{"items": "x"}`,
	`{"items": 3}`,
	`{"items": [{"type": 1}]}`,
	`{"items": [{"type": {}}]}`,
	`{"items": [{"type": ["a"]}]}`,
	`[]`,
	`[{"items": []}]`,
	`"x"`,
	`3`,
	`true`,

	// Escapes.
	`{"items": [{"type": "a\"b\\c\/d\b\f\n\r\t\u00e9\uD83D\uDE00"}]}`,
	`{"items": [{"type": "\ud800"}, {"type": "\udc00\ud800x"}]}`,
	`{"items": [{"type": "\x"}]}`,
	`{"items": [{"type": "\u12"}]}`,
	`{"items": [{"type": "\u12G4"}]}`,
	`{"items": [{"table": "\q"}]}`,
	`{"items": [{"table": "\u00"}]}`,
	`{"items": [{"table": "\"}]}`,
	`{"items": [{"type": "a\`,

	// Control characters and invalid UTF-8.
	"{\"items\": [{\"type\": \"a\x01b\"}]}",
	"{\"items\": [{\"type\": \"a\tb\"}]}",
	"{\"items\": [{\"table\": \"\x00\"}]}",
	"{\"items\": [{\"type\": \"\xff\"}, {\"type\": \"\xc3\"}, {\"type\": \"\xed\xa0\x80\"}]}",
	"{\"\xffitems\": [], \"items\": [{\"table\": \"\xc3\x28\"}]}",
	"{\"items\": [{\"type\": \"S_3\"}]}\x00",

	// Trailing data and trailing commas.
	`{"items": [{"type": "a"}]} x`,
	`{"items": [{"type": "a"}]}}`,
	`{} {}`,
	"{\"items\": [{\"type\": \"a\"}]} \n\t\r",
	`{"items": [{"type": "a"},]}`,
	`{"items": [{"type": "a",}]}`,
	`{"limit": 3,}`,
	`{"items": [{"table": [1,]}]}`,
	`{"items": [{"table": {"a": 1,}}]}`,
	`{"items": [,{"type": "a"}]}`,
	`{,}`,

	// Truncations and other syntax errors.
	``,
	` `,
	`{`,
	`{"items": [`,
	`{"items"}`,
	`{"items":}`,
	`{"items" [] }`,
	`{"a" 1}`,
	`{items: []}`,
	`{'items': []}`,
	`{"items": [{"table": tru}]}`,
	`{"items": [{"table": nulL}]}`,
	`{"items": [{"table": [1 2]}]}`,
	`{"items": [{"table": {"a" 1}}]}`,
	`{"items": [{"table": {1: 2}}]}`,
	`{"items": [{"table": [}]}`,
	`{"items": [{"table": {]}]}`,
	`{"items": [{"table": -0.5e+10}, {"table": 0e0}, {"table": 1E-2}, {"table": 1.5}]}`,
	`{"items": [{"table": 00}]}`,
	`{"items": [{"table": 1.e5}]}`,

	// Nesting past the reader's inline stack of open containers (the
	// cap itself is TestDecodeBatchRequestDepthCap's: seeds that large
	// stall the fuzzer's minimizer).
	`{"items": [{"table": ` + strings.Repeat(`[{"a":`, 40) + `[]` + strings.Repeat("}]", 40) + `}]}`,
	`{"items": [{"table": ` + strings.Repeat(`[{"a":`, 40) + `[}` + strings.Repeat("}]", 40) + `}]}`,
}

// FuzzBatchRequest holds decodeBatchRequest to json.Unmarshal: the
// same bodies accepted, and on those the same limit, the same types
// and each table's bytes equal to the json.RawMessage, as a subslice
// of the body.
func FuzzBatchRequest(f *testing.F) {
	for _, s := range batchRequestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkBatchRequestParity(t, body)
	})
}

func checkBatchRequestParity(t *testing.T, body []byte) {
	t.Helper()
	var want batchRequest
	wantErr := json.Unmarshal(body, &want)
	got, err := decodeBatchRequest(body, math.MaxInt)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%.200q:\nreader error: %v\njson.Unmarshal error: %v", body, err, wantErr)
	}
	if err == nil {
		if d := diffBatchRequest(got, want); d != "" {
			t.Fatalf("%.200q: %s", body, d)
		}
		for i, it := range got.Items {
			if it.Table != nil && !within(body, it.Table) {
				t.Fatalf("%.200q: item %d's table is a copy, not a subslice of the body", body, i)
			}
		}
	}

	// With a cap, the read either ends at the first array past it or
	// reads exactly what the uncapped read does.
	const maxItems = 2
	capped, cerr := decodeBatchRequest(body, maxItems)
	switch {
	case errors.Is(cerr, errTooManyItems):
	case cerr != nil:
		if err == nil {
			t.Fatalf("%.200q: capped read failed (%v) where the uncapped one succeeded", body, cerr)
		}
	case err != nil:
		t.Fatalf("%.200q: capped read succeeded where the uncapped one failed (%v)", body, err)
	default:
		if d := diffBatchRequest(capped, got); d != "" {
			t.Fatalf("%.200q: capped read differs: %s", body, d)
		}
	}
}

// diffBatchRequest describes how got differs from want, or returns "".
// A nil table (no "table" key) differs from every present one.
func diffBatchRequest(got, want batchRequest) string {
	if got.Limit != want.Limit {
		return fmt.Sprintf("limit %d, want %d", got.Limit, want.Limit)
	}
	if len(got.Items) != len(want.Items) {
		return fmt.Sprintf("%d items, want %d", len(got.Items), len(want.Items))
	}
	for i, g := range got.Items {
		w := want.Items[i]
		if g.Type != w.Type {
			return fmt.Sprintf("item %d type %q, want %q", i, g.Type, w.Type)
		}
		if (g.Table == nil) != (w.Table == nil) || !bytes.Equal(g.Table, w.Table) {
			return fmt.Sprintf("item %d table %q, want %q", i, g.Table, w.Table)
		}
	}
	return ""
}

// within reports whether b lies inside buf's memory.
func within(buf, b []byte) bool {
	for i := range buf {
		if &buf[i] == &b[0] {
			return i+len(b) <= len(buf)
		}
	}
	return false
}

// TestDecodeBatchRequestDepthCap holds the reader to encoding/json's
// nesting cap of 10000 open arrays and objects: the top object, "items"
// and an item hold three, so a table may open 9997 more and not 9998,
// and an unknown top-level key's value may open 9999 and not 10000.
func TestDecodeBatchRequestDepthCap(t *testing.T) {
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"items": [{"table": ` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `}]}`, true},
		{`{"items": [{"table": ` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]}`, false},
		{`{"x": ` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `, "items": []}`, true},
		{`{"x": ` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `, "items": []}`, false},
		{`{"items": [{"x": ` + strings.Repeat("[", 9996) + `[]` + strings.Repeat("]", 9996) + `}]}`, true},
		{`{"items": [{"x": ` + strings.Repeat("[", 9997) + `{}` + strings.Repeat("]", 9997) + `}]}`, false},
	} {
		_, err := decodeBatchRequest([]byte(tc.body), math.MaxInt)
		if (err == nil) != tc.ok {
			t.Fatalf("%.40s… (%d bytes): error %v, want ok=%v", tc.body, len(tc.body), err, tc.ok)
		}
		checkBatchRequestParity(t, []byte(tc.body))
	}
}

// TestDecodeBatchRequestStopsAtCap: an items array one past the cap
// ends the read there, so bytes after it, however malformed, are never
// looked at.
func TestDecodeBatchRequestStopsAtCap(t *testing.T) {
	item := `{"type":"S_3"},`
	for _, tc := range []struct {
		body string
		err  error
	}{
		{`{"items":[` + strings.Repeat(item, batchMaxItems) + `{"type":"S_3"}]}`, errTooManyItems},
		{`{"items":[` + strings.Repeat(item, batchMaxItems) + `{not json`, errTooManyItems},
		{`{"items":[` + strings.Repeat(item, batchMaxItems-1) + `{"type":"S_3"}]}`, nil},
	} {
		req, err := decodeBatchRequest([]byte(tc.body), batchMaxItems)
		if !errors.Is(err, tc.err) {
			t.Fatalf("%d-byte body: error %v, want %v", len(tc.body), err, tc.err)
		}
		if err == nil && len(req.Items) != batchMaxItems {
			t.Fatalf("%d items, want %d", len(req.Items), batchMaxItems)
		}
	}
}

// rcperfBatchBody is a batch shaped like rcperf serve-warm's: 50 items
// over a pool of the zoo's names followed by random 3-state, 2-op,
// 2-response tables, as json.Marshal renders them.
func rcperfBatchBody(tb testing.TB) []byte {
	tb.Helper()
	var pool []map[string]any
	for _, t := range types.Zoo() {
		pool = append(pool, map[string]any{"type": t.Name()})
	}
	rng := rand.New(rand.NewSource(1))
	for len(pool) < 100 {
		raw, err := json.Marshal(atlas.Random(rng, 3, 2, 2).Custom())
		if err != nil {
			tb.Fatal(err)
		}
		pool = append(pool, map[string]any{"table": json.RawMessage(raw)})
	}
	// rcperf's window of 50 wraps from the pool's tables to its names.
	items := slices.Concat(pool[len(pool)-43:], pool[:7])
	body, err := json.Marshal(map[string]any{"limit": 3, "items": items})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func BenchmarkBatchDecode(b *testing.B) {
	body := rcperfBatchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeBatchRequest(body, batchMaxItems); err != nil {
			b.Fatal(err)
		}
	}
}
