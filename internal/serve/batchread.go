package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"
)

// decodeBatchRequest reads a POST /v1/classify/batch body in one pass.
// encoding/json scans such a body three times: checkValid over all of
// it, the decode, and a second scan of every json.RawMessage table,
// which it then copies. This reader checks the grammar, decodes limit
// and each item's type as it goes, and leaves each item's Table a
// subslice of body: the exact bytes the client sent, which is what the
// item memo keys on (classifyItemKey).
//
// It accepts and rejects what json.Unmarshal into a batchRequest does,
// and FuzzBatchRequest holds it to that:
//   - a key selects a field when it equals the field's name exactly or
//     under encoding/json's case folding ("ITEMS", "itemſ");
//   - a repeated key wins last, and a repeated "items" array decodes
//     over the earlier array's elements, as encoding/json's does;
//   - null leaves a field as it was, except that "items": null empties
//     the list and "table": null is the table bytes `null`;
//   - limit must be an integer literal that fits an int ("3.0" and
//     "3e0" are errors);
//   - more than 10000 nested arrays and objects is an error.
//
// Keys and type names with escapes or invalid UTF-8 are few (json.Marshal
// writes "test&set" as "test\u0026set"); only such a token goes to
// encoding/json to be unquoted.
//
// One departure bounds the work an over-cap batch costs: an "items"
// array longer than maxItems ends the read at its element maxItems+1
// with errTooManyItems, although encoding/json would read on, and a
// later "items" key could replace the long array.
func decodeBatchRequest(body []byte, maxItems int) (batchRequest, error) {
	d := batchReader{data: body}
	var req batchRequest
	d.ws()
	var err error
	switch d.peek() {
	case '{':
		err = d.request(&req, maxItems)
	case 'n':
		err = d.literal("null")
	default:
		err = d.wrongType(0, "the batch request", "an object")
	}
	if err != nil {
		return batchRequest{}, err
	}
	d.ws()
	if d.off < len(d.data) {
		return batchRequest{}, d.syntaxError("after top-level value")
	}
	return req, nil
}

// errTooManyItems reports an "items" array longer than the reader's cap.
var errTooManyItems = errors.New("too many items")

// maxNestingDepth is encoding/json's cap on open arrays and objects.
const maxNestingDepth = 10000

// batchReader is decodeBatchRequest's cursor: the value readers start
// at the value's first byte, with whitespace already skipped.
type batchReader struct {
	data []byte
	off  int
}

func (d *batchReader) request(req *batchRequest, maxItems int) error {
	return d.object(func(key []byte) error {
		switch {
		case fieldIs(key, "limit"):
			return d.limit(&req.Limit)
		case fieldIs(key, "items"):
			return d.items(&req.Items, maxItems)
		}
		return d.skipValue(1)
	})
}

func (d *batchReader) limit(dst *int) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && !isDigit(c) {
		return d.wrongType(1, `"limit"`, "an integer")
	}
	start := d.off
	if err := d.number(); err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(d.data[start:d.off]), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf(`"limit" must be an integer that fits an int, got %s`, d.data[start:d.off])
	}
	*dst = int(n)
	return nil
}

// items decodes an "items" array over *dst as encoding/json's array
// does: element i decodes over the old element i while the old slice's
// capacity lasts, and the result is cut to the new array's length.
func (d *batchReader) items(dst *[]batchItem, maxItems int) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.wrongType(1, `"items"`, "an array")
	}
	d.off++
	d.ws()
	if d.peek() == ']' {
		d.off++
		*dst = []batchItem{}
		return nil
	}
	items := *dst
	for i := 0; ; i++ {
		if i == maxItems {
			return errTooManyItems
		}
		if i == len(items) {
			if i < cap(items) {
				items = items[:i+1]
			} else {
				items = append(items, batchItem{})
			}
		}
		if err := d.item(&items[i]); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
			continue
		case ']':
			d.off++
			*dst = items[:i+1]
			return nil
		}
		return d.syntaxError("after array element")
	}
}

func (d *batchReader) item(it *batchItem) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.wrongType(2, "each item", "an object")
	}
	return d.object(func(key []byte) error {
		switch {
		case fieldIs(key, "type"):
			switch d.peek() {
			case 'n':
				return d.literal("null")
			case '"':
				s, err := d.text()
				it.Type = string(s)
				return err
			}
			return d.wrongType(3, `"type"`, "a string")
		case fieldIs(key, "table"):
			start := d.off
			if err := d.skipValue(3); err != nil {
				return err
			}
			it.Table = d.data[start:d.off:d.off]
			return nil
		}
		return d.skipValue(3)
	})
}

// fieldIs reports whether key selects the field name the way
// encoding/json matches keys: exactly, or else equal under simple
// Unicode case folding, which is what its foldName compares.
func fieldIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// object reads the object at d.off, calling member with each key once
// the cursor is at that key's value; member must read the value.
func (d *batchReader) object(member func(key []byte) error) error {
	d.off++
	d.ws()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.text()
		if err != nil {
			return err
		}
		if err := d.colon(); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
			continue
		case '}':
			d.off++
			return nil
		}
		return d.syntaxError("after object key:value pair")
	}
}

// skipValue checks the grammar of the value at d.off and moves past
// it; outer is the number of arrays and objects open around it. It
// keeps its position in a local, the hot loop of a batch read: most of
// a body is tables.
func (d *batchReader) skipValue(outer int) error {
	var inline [32]byte
	closers := inline[:0] // the closing bracket of each container open inside the value
	data, i := d.data, d.off
	fail := func(at int, context string) error {
		d.off = at
		return d.syntaxError(context)
	}
	for {
		// A value starts at data[i].
		if i == len(data) {
			return fail(i, "looking for beginning of value")
		}
		switch c := data[i]; c {
		case '{', '[':
			if outer+len(closers) >= maxNestingDepth {
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
				if i, err = d.key(i); err != nil {
					return err
				}
			}
			continue
		case '"':
			if j := plainEnd(data, i); j > 0 {
				i = j
				break
			}
			d.off = i
			if _, err := d.str(); err != nil {
				return err
			}
			i = d.off
		default:
			d.off = i
			if err := d.scalar(); err != nil {
				return err
			}
			i = d.off
		}
		// A value ended: close the containers that end with it, then
		// step to the next element of the innermost open one.
		for {
			if len(closers) == 0 {
				d.off = i
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
				if i, err = d.key(i); err != nil {
					return err
				}
			}
			break
		}
	}
}

// key checks the object key at data[i] and the colon after it, and
// returns where the key's value starts.
func (d *batchReader) key(i int) (int, error) {
	if j := plainEnd(d.data, i); j > 0 && j < len(d.data) && d.data[j] == ':' {
		return skipSpace(d.data, j+1), nil
	}
	d.off = i
	if d.peek() != '"' {
		return 0, d.syntaxError("looking for beginning of object key string")
	}
	if _, err := d.str(); err != nil {
		return 0, err
	}
	if err := d.colon(); err != nil {
		return 0, err
	}
	return d.off, nil
}

// scalar moves past the literal or number at d.off.
func (d *batchReader) scalar() error {
	switch c := d.peek(); {
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		return d.number()
	}
	return d.syntaxError("looking for beginning of value")
}

func (d *batchReader) colon() error {
	d.ws()
	if d.peek() != ':' {
		return d.syntaxError("after object key")
	}
	d.off++
	d.ws()
	return nil
}

// text reads the string at d.off and returns its contents: a subslice
// of the body when the token needs no unquoting, else encoding/json's
// unquoting of it (escapes resolved, invalid UTF-8 replaced).
func (d *batchReader) text() ([]byte, error) {
	start := d.off
	escaped, err := d.str()
	if err != nil {
		return nil, err
	}
	if s := d.data[start+1 : d.off-1]; !escaped && utf8.Valid(s) {
		return s, nil
	}
	var u string
	if err := json.Unmarshal(d.data[start:d.off], &u); err != nil {
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
// checks it in full). Inlined, it takes skipValue past most strings.
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

// str checks the string token at d.off and moves past it, reporting
// whether it holds an escape.
func (d *batchReader) str() (escaped bool, err error) {
	data := d.data
	i := d.off + 1
	for {
		for i < len(data) && strByte[data[i]] {
			i++
		}
		d.off = i
		switch d.peek() {
		case '"':
			d.off++
			return escaped, nil
		case '\\':
			escaped = true
			d.off++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				d.off += 1 + hexPrefix(data[d.off+1:])
				if d.off != i+6 {
					return false, d.syntaxError(`in \u hexadecimal character escape`)
				}
				i += 6
			default:
				return false, d.syntaxError("in string escape code")
			}
		default:
			return false, d.syntaxError("in string literal")
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

// number moves past the number at d.off, checking JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *batchReader) number() error {
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case isDigit(c):
		d.digits()
	default:
		return d.syntaxError("in numeric literal")
	}
	if d.peek() == '.' {
		d.off++
		if !isDigit(d.peek()) {
			return d.syntaxError("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !isDigit(d.peek()) {
			return d.syntaxError("in exponent of numeric literal")
		}
		d.digits()
	}
	return nil
}

func (d *batchReader) digits() {
	for isDigit(d.peek()) {
		d.off++
	}
}

func (d *batchReader) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// wrongType checks the grammar of the value at d.off, which has the
// wrong type for what, and reports the mismatch. A malformed value
// reports its syntax error instead, as encoding/json would.
func (d *batchReader) wrongType(outer int, what, want string) error {
	start := d.off
	if err := d.skipValue(outer); err != nil {
		return err
	}
	return fmt.Errorf("%s must be %s, got %.32s", what, want, d.data[start:d.off])
}

func (d *batchReader) ws() { d.off = skipSpace(d.data, d.off) }

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace[data[i]] {
		i++
	}
	return i
}

var isSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// peek returns the byte at the cursor, or 0 at the end of the body (0
// is not valid JSON anywhere the readers peek).
func (d *batchReader) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// syntaxError reports the byte at the cursor, in encoding/json's words.
func (d *batchReader) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", rune(d.data[d.off]), context, d.off)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
