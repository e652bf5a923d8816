package types

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// parseCustomWithJSON is NewCustomFromJSON as it read tables with
// encoding/json: the oracle the one-pass reader is held to.
func parseCustomWithJSON(data []byte) (*Custom, error) {
	var c Custom
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("types: parse custom type: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// TestCustomUploadErrorText: a rejected upload reports exactly the
// error encoding/json's decode reported, so rcserve's 400 bodies and
// rcons's messages read as they did. Each case's Validate message does
// not depend on map order.
func TestCustomUploadErrorText(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"truncated", `{"name":"x","transitions":{"q0":{"a":{"next":"q0"`},
		{"empty", ``},
		{"number for next", `{"name":"x","transitions":{"q0":{"a":{"next":1,"resp":"r"}}}}`},
		{"bad escape", `{"name":"x\q","transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`},
		{"trailing data", `{"name":"x","transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}} {}`},
		{"null row", `{"name":"x","transitions":{"q0":null}}`},
		{"array for transitions", `{"name":"x","transitions":[]}`},
		{"string for readable", `{"name":"x","readable":"yes","transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`},
		{"string for initial", `{"name":"x","initial":"q0","transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`},
		{"array body", `[{"name":"x"}]`},
		{"trailing comma", `{"name":"x","transitions":{"q0":{"a":{"next":"q0","resp":"r"},}}}`},
		{"control character", "{\"name\":\"x\ty\",\"transitions\":{}}"},
		{"too deep", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, want := parseCustomWithJSON([]byte(tc.body))
			_, got := NewCustomFromJSON([]byte(tc.body))
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("error %q, want %q", got, want)
			}
			var syntax *json.SyntaxError
			if errors.As(want, &syntax) != errors.As(got, &syntax) {
				t.Fatalf("error %v does not wrap the *json.SyntaxError %v does", got, want)
			}
		})
	}
}

// customSeeds cover the corners where decodeCustom could part from
// json.Unmarshal into a Custom: folded and repeated keys, a repeated
// "transitions" merging into the first, repeated states and operations
// replacing theirs, nulls in every position, values of the wrong type,
// escapes, invalid UTF-8, trailing data and nesting.
var customSeeds = []string{
	stickyJSON,
	string(benchCustomTable),
	`{"name":"x","readable":false,"transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`,

	// Keys: folded (K U+212A folds to k, ſ to s), escaped, near misses.
	`{"NAME":"x","Initial":["q0"],"TRANSITIONS":{"q0":{"a":{"NEXT":"q0","Resp":"r"}}},"READABLE":true}`,
	`{"name":"x","tranſitions":{"q0":{"a":{"next":"q0","reſp":"r"}}}}`,
	"{\"name\":\"x\",\"transitions\":{\"q0\":{\"a\":{\"next\":\"q0\",\"resp\":\"r\",\"\u212aey\":1}}}}",
	`{"n\u0061me":"x","transitions":{"q\u0030":{"a":{"next":"q\u0030","resp":"r"}}}}`,
	`{"name":"x","names":"y","name ":"z","transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`,
	`{"name":"x","transitions":{"Q0":{"a":{"next":"q0","resp":"r"}},"q0":{"A":{"next":"Q0","resp":"r"},"a":{"next":"q0","resp":"r"}}}}`,

	// Repeated keys: last wins for fields, a repeated "transitions"
	// merges, a repeated state or op replaces, a repeated "initial"
	// decodes over the earlier array.
	`{"name":"x","name":"y","transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`,
	`{"name":"x","transitions":{"q0":{"a":{"next":"q1","resp":"r"}}},"transitions":{"q1":{"a":{"next":"q0","resp":"s"}}}}`,
	`{"name":"x","transitions":{"q0":{"a":{"next":"q0","resp":"r"},"b":{"next":"q0","resp":"r"}},"q0":{"a":{"next":"q0","resp":"s"}}}}`,
	`{"name":"x","transitions":{"q0":{"a":{"next":"q0","resp":"r"},"a":{"resp":"s"}}}}`,
	`{"name":"x","transitions":{"q0":{"a":{"next":"q0","resp":"r","next":"q1"}}}}`,
	`{"name":"x","initial":["q0","q1","q0"],"initial":["q1"],"initial":[null,null,null],"transitions":{"q0":{"a":{"next":"q1","resp":"r"}},"q1":{"a":{"next":"q0","resp":"r"}}}}`,
	`{"name":"x","initial":["q0","q1"],"initial":[],"initial":[null],"transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`,
	`{"name":"x","readable":false,"readable":true,"readable":null,"readable":false,"transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`,

	// Nulls.
	`null`,
	`{"name":null,"initial":null,"transitions":null,"readable":null}`,
	`{"name":"x","transitions":{"q0":{"a":{"next":"q0","resp":"r"}}},"transitions":null}`,
	`{"name":"x","transitions":null,"transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`,
	`{"name":"x","transitions":{"q0":null}}`,
	`{"name":"x","transitions":{"q0":{"a":null}}}`,
	`{"name":"x","transitions":{"q0":{"a":{"next":null,"resp":null}}}}`,
	`{"name":"x","initial":[null],"transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}}`,

	// Values of the wrong type.
	`{"name":1}`,
	`{"name":"x","initial":"q0"}`,
	`{"name":"x","initial":[1]}`,
	`{"name":"x","transitions":[]}`,
	`{"name":"x","transitions":{"q0":[]}}`,
	`{"name":"x","transitions":{"q0":{"a":"q0"}}}`,
	`{"name":"x","transitions":{"q0":{"a":{"next":1}}}}`,
	`{"name":"x","readable":"true"}`,
	`{"name":"x","readable":0}`,
	`[]`,
	`"x"`,
	`true`,

	// Escapes and invalid UTF-8 in names and keys.
	`{"name":"a\"b\\c\/d\u00e9\ud83d\ude00","transitions":{"\u0071\ud800":{"\n":{"next":"\u0071\ud800","resp":"\t"}}}}`,
	`{"name":"\x","transitions":{}}`,
	`{"name":"\u12","transitions":{}}`,
	"{\"name\":\"\xff\",\"transitions\":{\"q\xc3\":{\"a\":{\"next\":\"q\xc3\",\"resp\":\"\xed\xa0\x80\"}}}}",
	"{\"name\":\"x\x01\",\"transitions\":{}}",

	// Trailing data, trailing commas, truncations.
	stickyJSON + ` x`,
	stickyJSON + `}`,
	stickyJSON + "\x00",
	`{"name":"x",}`,
	`{"name":"x","initial":["q0",]}`,
	`{"name":"x","transitions":{"q0":{"a":{"next":"q0","resp":"r"}}}`,
	``,
	`{`,

	// Nesting in unknown fields.
	`{"x":` + strings.Repeat(`[{"a":`, 40) + `[]` + strings.Repeat("}]", 40) + `,"name":"x","transitions":{"q0":{"a":{"next":"q0","resp":"r","y":` + strings.Repeat("[", 40) + strings.Repeat("]", 40) + `}}}}`,
	`{"x":` + strings.Repeat(`[{"a":`, 40) + `[}` + strings.Repeat("}]", 40) + `,"name":"x"}`,
}

// FuzzCustomFromJSON holds decodeCustom to json.Unmarshal into a
// Custom (the same tables accepted, and on those an equal Custom) and
// NewCustomFromJSON to parseCustomWithJSON: the same error text for a
// table encoding/json rejects, and the same verdict otherwise.
func FuzzCustomFromJSON(f *testing.F) {
	for _, s := range customSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Custom
		wantErr := json.Unmarshal(data, &want)
		var got Custom
		err := decodeCustom(data, &got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%.300q:\nreader error: %v\njson.Unmarshal error: %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%.300q: decoded %#v, want %#v", data, got, want)
		}
		_, gotErr := NewCustomFromJSON(data)
		_, oracleErr := parseCustomWithJSON(data)
		if (gotErr == nil) != (oracleErr == nil) || wantErr != nil && gotErr.Error() != oracleErr.Error() {
			t.Fatalf("%.300q: NewCustomFromJSON error %v, want %v", data, gotErr, oracleErr)
		}
	})
}
