package atlas

import (
	"encoding/hex"
	"sync"
)

// Caps on the canonical-form search: the minimization iterates all
// states! × ops! relabelings, so both factorials must stay small. The
// generator's own tables (≤ 5 states, ≤ 4 ops) are comfortably inside.
const (
	CanonMaxStates = 6
	CanonMaxOps    = 5
)

// Canonical returns the canonical representative of t's relabeling
// class — the relabeling of t whose byte encoding is lexicographically
// minimal over every state permutation × operation permutation, with
// responses renamed by first occurrence (so the response alphabet also
// shrinks to the responses actually used). Two tables have the same
// canonical representative exactly when one is a consistent renaming of
// the other's states, operations and responses.
//
// The representative carries no label (Name reports the dimensions), so
// canonicalization is a pure function of the transition structure and
// idempotent: t.Canonical().Canonical() == t.Canonical().
//
// ok is false when t exceeds the permutation caps.
func (t *Table) Canonical() (*Table, bool) {
	c, _, ok := t.CanonicalWithKey()
	return c, ok
}

// CanonicalKey returns the hex encoding of t's canonical byte form — a
// compact, relabeling-invariant identity: Enumerate's yielded keys, and
// the census's dedup key. ok is false when t exceeds the permutation caps.
func (t *Table) CanonicalKey() (string, bool) {
	enc, ok := t.canonicalBytes()
	if !ok {
		return "", false
	}
	return hex.EncodeToString(enc), true
}

// CanonicalWithKey returns the canonical representative and its key
// from a single minimization pass — the states!×ops! scan dominates
// canonicalization, so hot paths that need both (the census) should
// call this rather than Canonical + CanonicalKey.
func (t *Table) CanonicalWithKey() (*Table, string, bool) {
	enc, ok := t.canonicalBytes()
	if !ok {
		return nil, "", false
	}
	return fromCanonical(enc), hex.EncodeToString(enc), true
}

// canonicalBytes computes the minimal encoding over all relabelings.
func (t *Table) canonicalBytes() ([]byte, bool) {
	var c canonicalizer
	return c.minimize(t.states, t.ops, t.resps, t.next, t.resp)
}

// canonicalizer is the one canonicalization routine. minimize runs it
// on the raw next/resp arrays of an arbitrary table (the Table methods,
// random tables, uploads); Enumerate only asks whether its odometer's
// raw table is already canonical (nextMinimal, respMinimal). Both
// compare relabelings with encode's parts. Its scratch is reused across
// calls; a canonicalizer is not safe for concurrent use.
type canonicalizer struct {
	buf, best []byte
	ren       [MaxStates]uint8
	ties      []relabeling
}

// relabeling is one state × operation relabeling, as encode takes it:
// new state k is old state qs[k] and new operation k is old operation
// qo[k].
type relabeling struct{ qs, qo []int }

// size makes buf and best n bytes long, reusing their storage.
func (c *canonicalizer) size(n int) {
	if cap(c.buf) < n {
		c.buf, c.best = make([]byte, n), make([]byte, n)
	}
	c.buf, c.best = c.buf[:n], c.best[:n]
}

// minimize returns the canonical encoding of the table with S states, O
// operations and R responses whose transitions are next/resp (indexed
// s*O + o): the lexicographically minimal encoding over every state ×
// operation relabeling. The result aliases the scratch and is valid
// until the next call. ok is false when S or O exceeds the permutation
// caps.
func (c *canonicalizer) minimize(S, O, R int, next, resp []uint8) ([]byte, bool) {
	if S > CanonMaxStates || O > CanonMaxOps {
		return nil, false
	}
	c.size(3 + 2*S*O)
	first := true
	var ps [CanonMaxStates]uint8
	for _, qs := range permutations(S) {
		for k, old := range qs {
			ps[old] = uint8(k)
		}
		for _, qo := range permutations(O) {
			if c.encode(S, O, R, next, resp, qs, qo, ps[:S], first) {
				c.buf, c.best = c.best, c.buf
				first = false
			}
		}
	}
	return c.best, true
}

// nextMinimal reports whether no state × operation relabeling encodes
// the next part of c.best, a raw table's own encoding, strictly
// smaller; next must be that part. If so, it leaves in c.ties the
// relabelings other than the identity that tie on it: every other one
// encodes the next part, and so the whole table, strictly larger.
func (c *canonicalizer) nextMinimal(S, O int, next []uint8) bool {
	c.ties = c.ties[:0]
	var ps [CanonMaxStates]uint8
	for i, qs := range permutations(S) {
		for k, old := range qs {
			ps[old] = uint8(k)
		}
		for j, qo := range permutations(O) {
			if i == 0 && j == 0 {
				continue // the identity encodes the table as itself
			}
			switch c.encodeNext(O, next, qs, qo, ps[:S], 0) {
			case -1:
				return false
			case 0:
				c.ties = append(c.ties, relabeling{qs, qo})
			}
		}
	}
	return true
}

// respMinimal reports whether no relabeling in c.ties encodes the
// response part of c.best strictly smaller; resp must be that part, a
// restricted-growth string over R responses.
func (c *canonicalizer) respMinimal(O, R int, resp []uint8) bool {
	for _, t := range c.ties {
		if c.encodeResp(O, R, resp, t.qs, t.qo, 0) < 0 {
			return false
		}
	}
	return true
}

// encode writes into c.buf the encoding of the table relabeled so that
// new state k is old state qs[k] and new operation k is old operation
// qo[k] (ps is the inverse of qs: old state → new state): [S, O, R',
// next…, resp…] in row-major order, with responses renamed by first
// occurrence, R' being the number of responses used. It reports whether
// the encoding is less than c.best — always, when first — and stops as
// soon as it is known not to be. R' is the same for every relabeling,
// so the header never decides a comparison.
func (c *canonicalizer) encode(S, O, R int, next, resp []uint8, qs, qo []int, ps []uint8, first bool) bool {
	order := 0
	if first {
		order = -1
	}
	if order = c.encodeNext(O, next, qs, qo, ps, order); order > 0 {
		return false
	}
	if order = c.encodeResp(O, R, resp, qs, qo, order); order > 0 {
		return false
	}
	c.buf[0], c.buf[1] = byte(S), byte(O)
	return order < 0
}

// encodeNext writes the next part of encode's encoding into c.buf and
// returns its order against c.best: order is the order of the bytes
// before it (−1 less, 0 equal), and the result is −1 if the encoding so
// far is less, 0 if equal, and 1 — having stopped at the deciding byte
// — if greater.
func (c *canonicalizer) encodeNext(O int, next []uint8, qs, qo []int, ps []uint8, order int) int {
	buf, best := c.buf, c.best
	k := 3
	for _, s := range qs {
		row := next[s*O : s*O+O]
		for _, o := range qo {
			v := ps[row[o]]
			if order == 0 {
				if v > best[k] {
					return 1
				}
				if v < best[k] {
					order = -1
				}
			}
			buf[k] = v
			k++
		}
	}
	return order
}

// encodeResp is encodeNext for the response part, which follows the
// next part: responses are renamed by first occurrence, and on
// finishing it stores the number used in c.buf's header.
func (c *canonicalizer) encodeResp(O, R int, resp []uint8, qs, qo []int, order int) int {
	buf, best := c.buf, c.best
	k := 3 + len(qs)*O
	ren := c.ren[:R]
	for r := range ren {
		ren[r] = 0xff
	}
	used := uint8(0)
	for _, s := range qs {
		row := resp[s*O : s*O+O]
		for _, o := range qo {
			r := row[o]
			if ren[r] == 0xff {
				ren[r] = used
				used++
			}
			v := ren[r]
			if order == 0 {
				if v > best[k] {
					return 1
				}
				if v < best[k] {
					order = -1
				}
			}
			buf[k] = v
			k++
		}
	}
	buf[2] = used
	return order
}

// fromCanonical builds the unlabeled Table a canonical encoding (as
// minimize returns it) describes.
func fromCanonical(enc []byte) *Table {
	S, O, R := int(enc[0]), int(enc[1]), int(enc[2])
	return newTable(S, O, R, enc[3:3+S*O], enc[3+S*O:])
}

// Permutations returns all permutations of 0..k-1 in lexicographic
// order. The returned slices are shared process-wide for small k —
// callers must not mutate them. Exposed for the compiled core's
// automorphism-group search (internal/compile), which reuses the same
// relabeling machinery as canonicalization.
func Permutations(k int) [][]int {
	return permutations(k)
}

// permutations returns all permutations of 0..k-1 in lexicographic
// order. For k ≤ CanonMaxStates (which covers CanonMaxOps) the tables
// are built once and then only read, so the millions of calls an
// enumeration makes take no lock; larger k is built fresh.
func permutations(k int) [][]int {
	if k <= CanonMaxStates {
		return permTables()[k]
	}
	return buildPermutations(k)
}

var permTables = sync.OnceValue(func() [][][]int {
	t := make([][][]int, CanonMaxStates+1)
	for k := range t {
		t[k] = buildPermutations(k)
	}
	return t
})

func buildPermutations(k int) [][]int {
	base := make([]int, k)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(prefix, rest []int)
	rec = func(prefix, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(append(append([]int(nil), prefix...), rest[i]), next)
		}
	}
	rec(nil, base)
	return out
}
