// Package jsonread is a one-pass JSON reader for the few fixed layouts
// this module decodes on its hot paths: batch request bodies (serve),
// store envelopes (store), persisted search results (engine) and
// uploaded transition tables (types).
//
// encoding/json scans such a document at least twice: checkValid over
// all of it, then the decode, which scans every json.RawMessage again
// and copies it. A decoder built on a Reader checks the grammar, decodes
// the fields it knows as it goes, and leaves raw values as subslices of
// the input.
//
// Each decoder accepts and rejects what json.Unmarshal into its struct
// does, and a differential fuzzer holds each to that. The Reader gives
// them encoding/json's rules:
//   - a key selects a field when it equals the field's name exactly or
//     under encoding/json's case folding ("ITEMS", "itemſ"): FieldIs;
//   - a repeated key wins last; a repeated array decodes over the
//     earlier array's elements (Slice), and a repeated object field
//     decodes into what the earlier one left;
//   - null leaves a string, number or bool field as it was, and sets a
//     slice, map or pointer to nil; a json.RawMessage holds the bytes
//     `null`;
//   - an int field takes only an integer literal that fits an int
//     ("3.0" and "3e0" are errors): Int;
//   - more than 10000 nested arrays and objects is an error.
//
// Keys and strings with escapes or invalid UTF-8 are few (json.Marshal
// writes "test&set" as "test\u0026set"); only such a token goes to
// encoding/json to be unquoted. The Reader's errors name the byte at
// fault in encoding/json's words but not always its exact text; a
// decoder whose callers show the text builds it from json.Unmarshal on
// the rejected input.
package jsonread

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// maxDepth is encoding/json's cap on open arrays and objects.
const maxDepth = 10000

// Reader is a cursor over one JSON document. The value readers start
// at the value's first byte, with whitespace already skipped, and leave
// the cursor just past the value.
type Reader struct {
	data  []byte
	off   int
	depth int // the arrays and objects open around the cursor
}

// NewReader returns a Reader at the first value of data.
func NewReader(data []byte) Reader {
	return Reader{data: data, off: skipSpace(data, 0)}
}

// End checks that only whitespace follows the top-level value.
func (r *Reader) End() error {
	r.ws()
	if r.off < len(r.data) {
		return r.syntaxError("after top-level value")
	}
	return nil
}

// FieldIs reports whether key selects the field name the way
// encoding/json matches keys: exactly, or else equal under simple
// Unicode case folding, which is what its foldName compares.
func FieldIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// Object reads the object at the cursor, calling member with each key
// once the cursor is at that key's value; member must read the value.
func (r *Reader) Object(member func(key []byte) error) error {
	if r.depth >= maxDepth {
		return r.syntaxError("exceeded max depth")
	}
	r.depth++
	r.off++
	r.ws()
	if r.Peek() == '}' {
		r.off++
		r.depth--
		return nil
	}
	for {
		if r.Peek() != '"' {
			return r.syntaxError("looking for beginning of object key string")
		}
		key, err := r.text()
		if err != nil {
			return err
		}
		if err := r.colon(); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		r.ws()
		switch r.Peek() {
		case ',':
			r.off++
			r.ws()
			continue
		case '}':
			r.off++
			r.depth--
			return nil
		}
		return r.syntaxError("after object key:value pair")
	}
}

// Struct decodes the object or null at the cursor as encoding/json
// decodes into a struct: member is called with each key, as Object
// calls it, and null leaves the struct as it was. Any other value is
// reported by WrongType(what, "an object").
func (r *Reader) Struct(what string, member func(key []byte) error) error {
	switch r.Peek() {
	case '{':
		return r.Object(member)
	case 'n':
		return r.Literal("null")
	}
	return r.WrongType(what, "an object")
}

// Map decodes the object or null at the cursor over *dst as
// encoding/json decodes into a map with string keys: null sets *dst to
// nil; an object adds its members to *dst, made if nil, each value
// decoded by elem from a zero V and stored under key(k), so a repeated
// key replaces its entry. Any other value is reported by WrongType(what,
// "an object").
func Map[V any](r *Reader, dst *map[string]V, what string, key func(k []byte) string, elem func() (V, error)) error {
	switch r.Peek() {
	case 'n':
		*dst = nil
		return r.Literal("null")
	case '{':
	default:
		return r.WrongType(what, "an object")
	}
	if *dst == nil {
		*dst = map[string]V{}
	}
	m := *dst
	return r.Object(func(k []byte) error {
		v, err := elem()
		if err == nil {
			m[key(k)] = v
		}
		return err
	})
}

// array reads the array at the cursor, calling elem with each index
// once the cursor is at that element; elem must read the element. It
// returns the array's length.
func (r *Reader) array(elem func(i int) error) (int, error) {
	if r.depth >= maxDepth {
		return 0, r.syntaxError("exceeded max depth")
	}
	r.depth++
	r.off++
	r.ws()
	if r.Peek() == ']' {
		r.off++
		r.depth--
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		r.ws()
		switch r.Peek() {
		case ',':
			r.off++
			r.ws()
			continue
		case ']':
			r.off++
			r.depth--
			return i + 1, nil
		}
		return 0, r.syntaxError("after array element")
	}
}

// Slice decodes the array or null at the cursor over *dst as
// encoding/json decodes into a slice: null sets *dst to nil, element i
// decodes over the old element i while the old slice's capacity lasts
// (elem reads it into v), the result is cut to the array's length, and
// an empty array gives an empty, non-nil slice. Any other value is
// reported by WrongType(what, "an array").
func Slice[T any](r *Reader, dst *[]T, what string, elem func(i int, v *T) error) error {
	switch r.Peek() {
	case 'n':
		*dst = nil
		return r.Literal("null")
	case '[':
	default:
		return r.WrongType(what, "an array")
	}
	s := *dst
	n, err := r.array(func(i int) error {
		if i == len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				// The capacity is full, so every element encoding/json
				// would keep moves over, whatever the new capacity.
				s = append(s, make([]T, max(4, len(s)))...)[:i+1]
			}
		}
		return elem(i, &s[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return nil
}

// String reads the string or null at the cursor. For a string it
// returns the unquoted contents and true; the contents are a subslice
// of the input unless the token needed unquoting. For null it returns
// false, which leaves a string field as it was. Any other value is
// reported by WrongType(what, "a string").
func (r *Reader) String(what string) ([]byte, bool, error) {
	switch r.Peek() {
	case '"':
		s, err := r.text()
		return s, err == nil, err
	case 'n':
		return nil, false, r.Literal("null")
	}
	return nil, false, r.WrongType(what, "a string")
}

// Int reads the number or null at the cursor into an int the way
// encoding/json does: the literal must be an integer that fits an int.
// It returns false for null. Any other value is reported by
// WrongType(what, "an integer").
func (r *Reader) Int(what string) (int, bool, error) {
	c := r.Peek()
	if c == 'n' {
		return 0, false, r.Literal("null")
	}
	if c != '-' && !isDigit(c) {
		return 0, false, r.WrongType(what, "an integer")
	}
	start := r.off
	if err := r.number(); err != nil {
		return 0, false, err
	}
	n, err := strconv.ParseInt(string(r.data[start:r.off]), 10, strconv.IntSize)
	if err != nil {
		return 0, false, fmt.Errorf("%s must be an integer that fits an int, got %s", what, r.data[start:r.off])
	}
	return int(n), true, nil
}

// Bool reads the boolean or null at the cursor. It returns false as its
// second result for null. Any other value is reported by WrongType(what,
// "a boolean").
func (r *Reader) Bool(what string) (bool, bool, error) {
	switch r.Peek() {
	case 't':
		return true, true, r.Literal("true")
	case 'f':
		return false, true, r.Literal("false")
	case 'n':
		return false, false, r.Literal("null")
	}
	return false, false, r.WrongType(what, "a boolean")
}

// Raw checks the value at the cursor, moves past it and returns its
// bytes, a subslice of the input with its capacity cut to its length:
// what encoding/json stores in a json.RawMessage, without the copy.
func (r *Reader) Raw() ([]byte, error) {
	start := r.off
	if err := r.Skip(); err != nil {
		return nil, err
	}
	return r.data[start:r.off:r.off], nil
}

// Skip checks the grammar of the value at the cursor and moves past it.
// It keeps its position in a local, the hot loop of a batch read: most
// of a batch body is tables.
func (r *Reader) Skip() error {
	var inline [32]byte
	closers := inline[:0] // the closing bracket of each container open inside the value
	data, i := r.data, r.off
	fail := func(at int, context string) error {
		r.off = at
		return r.syntaxError(context)
	}
	for {
		// A value starts at data[i].
		if i == len(data) {
			return fail(i, "looking for beginning of value")
		}
		switch c := data[i]; c {
		case '{', '[':
			if r.depth+len(closers) >= maxDepth {
				return fail(i, "exceeded max depth")
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			i = skipSpace(data, i+1)
			if i < len(data) && data[i] == closer {
				i++
				break
			}
			closers = append(closers, closer)
			if closer == '}' {
				var err error
				if i, err = r.key(i); err != nil {
					return err
				}
			}
			continue
		case '"':
			if j := plainEnd(data, i); j > 0 {
				i = j
				break
			}
			r.off = i
			if _, err := r.str(); err != nil {
				return err
			}
			i = r.off
		default:
			r.off = i
			if err := r.scalar(); err != nil {
				return err
			}
			i = r.off
		}
		// A value ended: close the containers that end with it, then
		// step to the next element of the innermost open one.
		for {
			if len(closers) == 0 {
				r.off = i
				return nil
			}
			i = skipSpace(data, i)
			closer := closers[len(closers)-1]
			if i < len(data) && data[i] == closer {
				i++
				closers = closers[:len(closers)-1]
				continue
			}
			if i == len(data) || data[i] != ',' {
				if closer == '}' {
					return fail(i, "after object key:value pair")
				}
				return fail(i, "after array element")
			}
			i = skipSpace(data, i+1)
			if closer == '}' {
				var err error
				if i, err = r.key(i); err != nil {
					return err
				}
			}
			break
		}
	}
}

// key checks the object key at data[i] and the colon after it, and
// returns where the key's value starts.
func (r *Reader) key(i int) (int, error) {
	if j := plainEnd(r.data, i); j > 0 && j < len(r.data) && r.data[j] == ':' {
		return skipSpace(r.data, j+1), nil
	}
	r.off = i
	if r.Peek() != '"' {
		return 0, r.syntaxError("looking for beginning of object key string")
	}
	if _, err := r.str(); err != nil {
		return 0, err
	}
	if err := r.colon(); err != nil {
		return 0, err
	}
	return r.off, nil
}

// scalar moves past the literal or number at the cursor.
func (r *Reader) scalar() error {
	switch c := r.Peek(); {
	case c == 't':
		return r.Literal("true")
	case c == 'f':
		return r.Literal("false")
	case c == 'n':
		return r.Literal("null")
	case c == '-' || isDigit(c):
		return r.number()
	}
	return r.syntaxError("looking for beginning of value")
}

func (r *Reader) colon() error {
	r.ws()
	if r.Peek() != ':' {
		return r.syntaxError("after object key")
	}
	r.off++
	r.ws()
	return nil
}

// text reads the string at the cursor and returns its contents: a
// subslice of the input when the token needs no unquoting, else
// encoding/json's unquoting of it (escapes resolved, invalid UTF-8
// replaced).
func (r *Reader) text() ([]byte, error) {
	start := r.off
	escaped, err := r.str()
	if err != nil {
		return nil, err
	}
	if s := r.data[start+1 : r.off-1]; !escaped && utf8.Valid(s) {
		return s, nil
	}
	var u string
	if err := json.Unmarshal(r.data[start:r.off], &u); err != nil {
		return nil, err
	}
	return []byte(u), nil
}

// strByte marks the bytes a string token holds as they stand: all but
// the quote, the backslash and the control characters.
var strByte = func() (t [256]bool) {
	for c := 0x20; c < len(t); c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainEnd returns the index just past the string token at data[i]
// when it holds no escape or control character, else 0 (str then
// checks it in full). Inlined, it takes Skip past most strings.
func plainEnd(data []byte, i int) int {
	if i >= len(data) || data[i] != '"' {
		return 0
	}
	for j := i + 1; j < len(data); j++ {
		if !strByte[data[j]] {
			if data[j] == '"' {
				return j + 1
			}
			return 0
		}
	}
	return 0
}

// str checks the string token at the cursor and moves past it,
// reporting whether it holds an escape.
func (r *Reader) str() (escaped bool, err error) {
	data := r.data
	i := r.off + 1
	for {
		for i < len(data) && strByte[data[i]] {
			i++
		}
		r.off = i
		switch r.Peek() {
		case '"':
			r.off++
			return escaped, nil
		case '\\':
			escaped = true
			r.off++
			switch r.Peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				r.off += 1 + hexPrefix(data[r.off+1:])
				if r.off != i+6 {
					return false, r.syntaxError(`in \u hexadecimal character escape`)
				}
				i += 6
			default:
				return false, r.syntaxError("in string escape code")
			}
		default:
			return false, r.syntaxError("in string literal")
		}
	}
}

// hexPrefix counts the hex digits b starts with, up to 4.
func hexPrefix(b []byte) int {
	n := 0
	for n < 4 && n < len(b) {
		c := b[n]
		if !isDigit(c) && (c|0x20 < 'a' || c|0x20 > 'f') {
			break
		}
		n++
	}
	return n
}

// number moves past the number at the cursor, checking JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *Reader) number() error {
	if r.Peek() == '-' {
		r.off++
	}
	switch c := r.Peek(); {
	case c == '0':
		r.off++
	case isDigit(c):
		r.digits()
	default:
		return r.syntaxError("in numeric literal")
	}
	if r.Peek() == '.' {
		r.off++
		if !isDigit(r.Peek()) {
			return r.syntaxError("after decimal point in numeric literal")
		}
		r.digits()
	}
	if c := r.Peek(); c == 'e' || c == 'E' {
		r.off++
		if c := r.Peek(); c == '+' || c == '-' {
			r.off++
		}
		if !isDigit(r.Peek()) {
			return r.syntaxError("in exponent of numeric literal")
		}
		r.digits()
	}
	return nil
}

func (r *Reader) digits() {
	for isDigit(r.Peek()) {
		r.off++
	}
}

// Literal moves past the literal lit (true, false or null) at the
// cursor.
func (r *Reader) Literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if r.Peek() != lit[i] {
			return r.syntaxError("in literal " + lit)
		}
		r.off++
	}
	return nil
}

// WrongType checks the grammar of the value at the cursor, which has
// the wrong type for what, and reports the mismatch. A malformed value
// reports its syntax error instead, as encoding/json would.
func (r *Reader) WrongType(what, want string) error {
	start := r.off
	if err := r.Skip(); err != nil {
		return err
	}
	return fmt.Errorf("%s must be %s, got %.32s", what, want, r.data[start:r.off])
}

func (r *Reader) ws() { r.off = skipSpace(r.data, r.off) }

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace[data[i]] {
		i++
	}
	return i
}

var isSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// Peek returns the byte at the cursor, or 0 at the end of the input (0
// is not valid JSON anywhere the readers peek).
func (r *Reader) Peek() byte {
	if r.off < len(r.data) {
		return r.data[r.off]
	}
	return 0
}

// syntaxError reports the byte at the cursor, in encoding/json's words.
func (r *Reader) syntaxError(context string) error {
	if r.off >= len(r.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", rune(r.data[r.off]), context, r.off)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
