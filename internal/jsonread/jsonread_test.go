package jsonread

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// walk reads the value at the cursor with the Reader's structured
// readers (Object, and Slice for arrays) down to depth skipAt, and with
// Skip below it, so a document's containers are counted partly by the
// Reader and partly by Skip's own stack. skipAt < 0 never skips a
// container.
func walk(r *Reader, depth, skipAt int) error {
	if depth == skipAt {
		return r.Skip()
	}
	switch r.Peek() {
	case '{':
		return r.Object(func([]byte) error { return walk(r, depth+1, skipAt) })
	case '[':
		var elems []struct{}
		return Slice(r, &elems, "value", func(int, *struct{}) error { return walk(r, depth+1, skipAt) })
	}
	return r.Skip()
}

// nested is depth arrays or objects, one inside the other, around 0.
func nested(depth int, open, close string) []byte {
	return []byte(strings.Repeat(open, depth) + "0" + strings.Repeat(close, depth))
}

// FuzzReader holds the package's shared core to encoding/json:
//   - the grammar check accepts exactly what json.Valid does, whether
//     Skip reads the whole document, Object and Slice read every
//     container, or they read the outer containers and Skip the rest
//     (the seeds include 10000 nested arrays and objects, encoding/json's
//     cap, and 10001, one past it); an accepted document's Raw bytes are
//     the input without its surrounding whitespace;
//   - String, Int and Bool accept exactly what json.Unmarshal into a
//     string, int or bool does, and decode the same value, with null
//     leaving the old value in place.
func FuzzReader(f *testing.F) {
	for _, seed := range []string{
		``, ` `, `null`, `true`, `false`, `nul`, `0`, `-0`, `01`, `1.`, `1.5e+3`, `1E`, `-`,
		`9223372036854775807`, `9223372036854775808`, `-9223372036854775809`, `3.0`, `3e0`,
		`""`, `"a\"b"`, `"é😀"`, `"\u12"`, `"\x"`, "\"\x01\"", "\"\xff\"", `"ſ"`,
		`[]`, `[1,]`, `[1 2]`, `{}`, `{"a":1,}`, `{"a" 1}`, `{1:2}`, `{"a":[{"b":null}],"c":"d"}`,
		" \t\r\n[ 1 , {\"k\" : \"v\"} ] \n", `[1] x`, `"s" "t"`,
	} {
		f.Add([]byte(seed))
	}
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		f.Add(nested(depth, "[", "]"))
		f.Add(nested(depth, `{"k":`, "}"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		valid := json.Valid(data)
		for _, skipAt := range []int{0, 3, -1} {
			r := NewReader(data)
			err := walk(&r, 0, skipAt)
			if err == nil {
				err = r.End()
			}
			if (err == nil) != valid {
				t.Fatalf("read with Skip from depth %d: error %v, json.Valid %v, on %.64q", skipAt, err, valid, data)
			}
		}
		if valid {
			r := NewReader(data)
			raw, err := r.Raw()
			if want := bytes.Trim(data, " \t\r\n"); err != nil || !bytes.Equal(raw, want) {
				t.Fatalf("Raw = %.64q, %v, want %.64q", raw, err, want)
			}
		}

		s, ws := "old", "old"
		werr := json.Unmarshal(data, &ws)
		r := NewReader(data)
		b, ok, err := r.String("value")
		if err == nil {
			err = r.End()
		}
		if ok {
			s = string(b)
		}
		if (err == nil) != (werr == nil) || err == nil && s != ws {
			t.Fatalf("String: %q, %v; json.Unmarshal: %q, %v; on %.64q", s, err, ws, werr, data)
		}

		n, wn := -7, -7
		werr = json.Unmarshal(data, &wn)
		r = NewReader(data)
		v, ok, err := r.Int("value")
		if err == nil {
			err = r.End()
		}
		if ok {
			n = v
		}
		if (err == nil) != (werr == nil) || err == nil && n != wn {
			t.Fatalf("Int: %d, %v; json.Unmarshal: %d, %v; on %.64q", n, err, wn, werr, data)
		}

		bv, wb := true, true
		werr = json.Unmarshal(data, &wb)
		r = NewReader(data)
		got, ok, err := r.Bool("value")
		if err == nil {
			err = r.End()
		}
		if ok {
			bv = got
		}
		if (err == nil) != (werr == nil) || err == nil && bv != wb {
			t.Fatalf("Bool: %v, %v; json.Unmarshal: %v, %v; on %.64q", bv, err, wb, werr, data)
		}
	})
}
