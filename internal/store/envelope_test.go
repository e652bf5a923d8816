package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// envelopeSeeds cover the corners where decodeEnvelope could part from
// json.Unmarshal into an envelope: folded and repeated keys, nulls,
// versions that are not ints, checksums spelled another way, escapes,
// invalid UTF-8, whitespace around the payload, trailing data and
// nesting. Most carry a checksum that holds, so that the fuzzer starts
// from envelopes that verify.
func envelopeSeeds() []string {
	p := `{"found":true,"witness":{"q0":"s1","teams":[0,1],"ops":["a","b"]}}`
	sum := checksum([]byte(p))
	deep := strings.Repeat(`[{"a":`, 40) + `[]` + strings.Repeat("}]", 40)
	env := func(fields string) string { return `{` + fields + `}` }
	good := `"version":1,"kind":"search","key":"k/recording/2","checksum":"` + sum + `","payload":` + p
	return []string{
		env(good),
		"{\n\t\"version\" : 1 ,\r\n \"kind\" : \"job\", \"key\" : \"\", \"checksum\" : \"" + sum + "\" , \"payload\" : " + p + " }\n",
		env(`"version":1,"kind":"search","key":"k","checksum":"` + checksum([]byte(`{ "a" : [ 1 , 2 ] }`)) + `","payload": { "a" : [ 1 , 2 ] } `),
		env(`"version":1,"kind":"search","key":"k","checksum":"` + checksum([]byte(deep)) + `","payload":` + deep),
		env(`"x":` + deep + `,` + good),
		env(`"x":` + strings.Repeat(`[{"a":`, 40) + `[}` + strings.Repeat("}]", 40) + `,` + good),

		// Keys: folded (K U+212A folds to k, ſ to s), escaped, near misses.
		`{"VERSION":1,"Kind":"search","KEY":"k","CheckSum":"` + sum + `","PAYLOAD":` + p + `}`,
		`{"version":1,"Kind":"search","Key":"k","checkſum":"` + sum + `","payload":` + p + `}`,
		`{"version":1,"ķind":"search","key":"k","checksum":"` + sum + `","payload":` + p + `}`,
		"{\"version\":1,\"\u212aind\":\"search\",\"\u212aEY\":\"k\",\"checksum\":\"" + sum + "\",\"payload\":" + p + "}",
		`{"version":1,"kind":"search","key":"k","checksum":"` + sum + `","payload":` + p + `}`,
		`{"versions":2,"kind ":"x",` + good + `}`,

		// Repeated keys: last wins.
		`{"version":2,` + good + `}`,
		env(good + `,"version":2`),
		env(good + `,"payload":{"other":1}`),
		env(`"payload":{"other":1},` + good),
		env(`"checksum":"sha256:00",` + good),
		env(good + `,"kind":"job","key":"other"`),

		// Nulls.
		`null`,
		env(good + `,"kind":null,"key":null`),
		env(good + `,"version":null`),
		env(`"version":null,` + good),
		env(good + `,"checksum":null`),
		env(`"version":1,"checksum":"` + checksum([]byte("null")) + `","payload":null`),
		env(`"version":1,"checksum":"` + checksum(nil) + `"`),

		// Versions.
		env(`"version":1.0,` + good[len(`"version":1,`):]),
		env(`"version":1e0,` + good[len(`"version":1,`):]),
		env(`"version":-0,` + good[len(`"version":1,`):]),
		env(`"version":01,` + good[len(`"version":1,`):]),
		env(`"version":"1",` + good[len(`"version":1,`):]),
		env(`"version":true,` + good[len(`"version":1,`):]),
		env(`"version":18446744073709551617,` + good[len(`"version":1,`):]),

		// Checksums spelled another way: uppercase hex, escaped, short.
		env(strings.Replace(good, sum, "sha256:"+strings.ToUpper(sum[len("sha256:"):]), 1)),
		env(strings.Replace(good, sum, "SHA256:"+sum[len("sha256:"):], 1)),
		env(strings.Replace(good, sum, fmt.Sprintf(`sha256:\u%04x`, sum[len("sha256:")])+sum[len("sha256:")+1:], 1)),
		env(strings.Replace(good, sum, `sha256\u003a`+sum[len("sha256:"):], 1)),
		env(strings.Replace(good, sum, sum[:len(sum)-1], 1)),
		env(strings.Replace(good, sum, sum+"0", 1)),

		// Values of the wrong type.
		env(`"kind":1,` + good[len(`"version":1,`):] + `,"version":1`),
		env(good + `,"key":["k"]`),
		env(good + `,"checksum":{}`),
		`[]`,
		`"x"`,
		`3`,

		// Escapes and invalid UTF-8 in kind and key.
		env(`"version":1,"kind":"search","key":"a&b\"c\\d\/e😀","checksum":"` + sum + `","payload":` + p),
		env(`"version":1,"kind":"search","key":"\ud800","checksum":"` + sum + `","payload":` + p),
		env(`"version":1,"kind":"search","key":"\x","checksum":"` + sum + `","payload":` + p),
		env("\"version\":1,\"kind\":\"search\",\"key\":\"k\xff\xc3\",\"checksum\":\"" + sum + "\",\"payload\":" + p),
		env("\"version\":1,\"kind\":\"search\",\"key\":\"k\x01\",\"checksum\":\"" + sum + "\",\"payload\":" + p),

		// Trailing data, trailing commas and truncations.
		env(good) + ` x`,
		env(good) + `}`,
		env(good) + "\x00",
		env(good + `,`),
		env(good)[:len(env(good))-1],
		env(good)[:len(env(good))-2],
		``,
		`{`,
	}
}

// FuzzEnvelope holds decodeEnvelope to json.Unmarshal into an envelope
// followed by the version and checksum checks: the same bytes accepted,
// and on those the same kind and key, and the payload's exact bytes as
// a subslice of the input.
func FuzzEnvelope(f *testing.F) {
	for _, s := range envelopeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want envelope
		wantOK := json.Unmarshal(data, &want) == nil && want.Version == Version &&
			want.Checksum == checksum(want.Payload)
		e, err := decodeEnvelope(data)
		if (err == nil) != wantOK {
			t.Fatalf("%.300q: decodeEnvelope error %v, json.Unmarshal accepts: %v", data, err, wantOK)
		}
		if err != nil {
			return
		}
		got := envelope{Version: Version, Kind: string(e.kind), Key: string(e.key), Checksum: want.Checksum, Payload: e.payload}
		if !reflect.DeepEqual(got, want) || !bytes.Equal(e.payload, want.Payload) {
			t.Fatalf("%.300q: decoded %+v, want %+v", data, got, want)
		}
		if e.payload != nil && !within(data, e.payload) {
			t.Fatalf("%.300q: the payload is a copy, not a subslice of the envelope", data)
		}
	})
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
