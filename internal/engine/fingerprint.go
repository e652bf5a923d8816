package engine

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"rcons/internal/atlas"
	"rcons/internal/compile"
	"rcons/internal/spec"
)

// Fingerprint computes an exact identity for the search problem
// "(property of) type t among n processes": a hash over the type's name,
// candidate initial states, the candidate operation alphabet for n, and
// the full transition table restricted to states reachable from the
// initial states under that alphabet. Two spec.Type values with equal
// fingerprints produce identical witness-search results, which is what
// makes the engine's store keys sound for arbitrary (including
// user-supplied custom) types. ok is false when the type cannot be
// fingerprinted — the state space exceeds compile.StateCap or a
// transition fails — in which case results for it are simply not
// stored.
func Fingerprint(t spec.Type, n int) (fp string, ok bool) {
	c, err := compile.Table(t, n)
	if err != nil {
		return "", false
	}
	return fingerprint(c, n), true
}

// fingerprint renders Fingerprint's byte stream from the compiled table
// c of (t, n): the header lists n, t's initial states and candidate ops
// in their own order, then one line per table cell in sorted state
// order.
// The stream is byte-identical to the fmt.Fprintf formulation it
// replaced (%q on the spec string kinds is strconv.Quote), which keeps
// fingerprints stable across releases for the persistent store.
func fingerprint(c *compile.Compiled, n int) string {
	// Every label is quoted once into one slab: state s is
	// lab[at[s]:at[s+1]], and op o's `/"op"->` and response r's
	// `/"r"` + newline segments follow at offsets opAt and respAt.
	nStates, nOps, nResps := c.NumStates(), c.NumOps(), c.NumResps()
	at := make([]int, 0, nStates+nOps+nResps+1)
	lab := make([]byte, 0, 16*cap(at))
	for s := range nStates {
		at = append(at, len(lab))
		lab = appendQuoted(lab, string(c.StateAt(uint16(s))))
	}
	opAt := len(at)
	for o := range nOps {
		at = append(at, len(lab))
		lab = append(lab, '/')
		lab = appendQuoted(lab, string(c.OpAt(uint16(o))))
		lab = append(lab, '-', '>')
	}
	respAt := len(at)
	for r := range nResps {
		at = append(at, len(lab))
		lab = append(lab, '/')
		lab = appendQuoted(lab, string(c.RespAt(uint16(r))))
		lab = append(lab, '\n')
	}
	at = append(at, len(lab))

	// The stream is hashed in chunks of about half the buffer.
	const chunk = 1 << 10
	h := sha256.New()
	buf := make([]byte, 0, chunk)
	buf = append(buf, "name="...)
	buf = append(buf, c.Source().Name()...)
	buf = append(buf, "\nn="...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, '\n')
	for _, i := range c.InitSeq() {
		buf = append(buf, "init="...)
		buf = append(buf, lab[at[i]:at[i+1]]...)
		buf = append(buf, '\n')
	}
	for o := range nOps {
		buf = append(buf, "op="...)
		buf = append(buf, lab[at[opAt+o]+1:at[opAt+o+1]-2]...)
		buf = append(buf, '\n')
	}
	for s := range nStates {
		st := lab[at[s]:at[s+1]]
		for o := range nOps {
			ns, r := c.Apply(uint16(s), uint16(o))
			buf = append(buf, st...)
			buf = append(buf, lab[at[opAt+o]:at[opAt+o+1]]...)
			buf = append(buf, lab[at[ns]:at[ns+1]]...)
			buf = append(buf, lab[at[respAt+int(r)]:at[respAt+int(r)+1]]...)
		}
		if len(buf) >= chunk/2 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// appendQuoted appends the strconv.Quote encoding of s. Labels are
// almost always printable ASCII, for which Quote is just the string
// wrapped in double quotes — that case skips strconv's per-rune
// escape analysis; anything else falls back to strconv.AppendQuote,
// so the output is byte-identical either way.
func appendQuoted(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return strconv.AppendQuote(buf, s)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// Caps on the label-permutation search of CanonicalFingerprint; the
// combined permutation count is additionally capped so the candidate
// encodings stay cheap (each is linear in the reachable table).
const (
	canonicalOpCap    = 5
	canonicalInitCap  = 6
	canonicalComboCap = 20_000
)

// CanonicalFingerprint computes a label-free identity for the search
// problem "(property of) type t among n processes": states are numbered
// by breadth-first discovery order, responses by first occurrence, and
// operations by their position in a candidate ordering; the encoding is
// minimized over all operation orderings and initial-state orderings.
// The result is therefore invariant under any consistent renaming of
// states, operations and responses — two isomorphic transition tables
// (e.g. the same user-supplied type uploaded twice with different
// labels) share a canonical fingerprint even though their exact
// Fingerprints differ.
//
// The encoding is the text
//
//	n_ops=<ops>\ninit=<id>,<id>,…,\n<i>.<j>-><next id>/<resp id>\n…
//
// with one row per (discovered state i, op position j), and its
// SHA-256 is the fingerprint. Every candidate ordering discovers the
// same number of states, so the header and every "i.j->" prefix sit at
// the same offsets in every candidate's text; only the ids vary, and
// each is followed by ',', '/' or newline, which all sort below '0'.
// Comparing two texts byte by byte is therefore comparing their id
// sequences element by element in decimal-string order (decimalCmp).
// The search builds each candidate as that id sequence, abandons it at
// its first id above the least sequence so far, and renders the text
// once, for the winner — byte-identical to rendering and comparing
// every candidate's text.
//
// It deliberately does NOT replace Fingerprint as the engine's store
// key: stored witnesses name concrete states and operations, so serving
// a witness computed for an isomorphic-but-differently-labelled type
// would hand the caller op strings its type does not accept. Canonical
// fingerprints are an identity for humans and APIs (rcserve reports
// them), not a cache key.
//
// ok is false when the type cannot be canonicalized: an oversized state
// space, a transition error, or more operations/initial states than the
// permutation caps allow. The caps are checked on the type's alphabet
// and initial states, before its table is built.
func CanonicalFingerprint(t spec.Type, n int) (fp string, ok bool) {
	nOps, nInits := len(spec.CandidateOps(t, n)), len(t.InitialStates())
	if nOps == 0 || nInits == 0 || nOps > canonicalOpCap || nInits > canonicalInitCap ||
		factorial(nOps)*factorial(nInits) > canonicalComboCap {
		return "", false
	}
	c, err := compile.Table(t, n)
	if err != nil {
		return "", false
	}
	inits := c.InitSeq()
	stateID := make([]int32, c.NumStates())   // discovery number, -1 if unseen
	respID := make([]int32, c.NumResps())     // first-occurrence number, -1 if unseen
	order := make([]uint16, 0, c.NumStates()) // states in discovery order
	intern := func(s uint16) int32 {
		if stateID[s] < 0 {
			stateID[s] = int32(len(order))
			order = append(order, s)
		}
		return stateID[s]
	}
	// A candidate is its id sequence: the initial states' ids, then each
	// row's next-state and response ids. best is the least complete
	// candidate so far (nil before the first), and below is set once
	// cand sorts below it, after which the rest of cand needs no
	// comparison.
	cand := make([]int32, 0, len(inits)+2*nOps*c.NumStates())
	var best []int32
	below := false
	// push appends id to cand, reporting false once cand sorts above best.
	push := func(id int32) bool {
		if !below {
			switch decimalCmp(id, best[len(cand)]) {
			case 1:
				return false
			case -1:
				below = true
			}
		}
		cand = append(cand, id)
		return true
	}
	initPerms := atlas.Permutations(len(inits))
	for _, opPerm := range atlas.Permutations(nOps) {
	candidates:
		for _, initPerm := range initPerms {
			for i := range stateID {
				stateID[i] = -1
			}
			for i := range respID {
				respID[i] = -1
			}
			order = order[:0]
			resps := int32(0)
			cand, below = cand[:0], best == nil
			for _, j := range initPerm {
				if !push(intern(inits[j])) {
					continue candidates
				}
			}
			for i := 0; i < len(order); i++ { // order grows as states are discovered
				for _, o := range opPerm {
					ns, r := c.Apply(order[i], uint16(o))
					if respID[r] < 0 {
						respID[r] = resps
						resps++
					}
					if !push(intern(ns)) || !push(respID[r]) {
						continue candidates
					}
				}
			}
			if below {
				cand, best = best[:0], cand
			}
		}
	}

	buf := make([]byte, 0, 16+8*len(best))
	buf = append(buf, "n_ops="...)
	buf = strconv.AppendInt(buf, int64(nOps), 10)
	buf = append(buf, "\ninit="...)
	for _, id := range best[:len(inits)] {
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, ',')
	}
	buf = append(buf, '\n')
	for k, rows := 0, best[len(inits):]; 2*k < len(rows); k++ {
		buf = strconv.AppendInt(buf, int64(k/nOps), 10)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(k%nOps), 10)
		buf = append(buf, '-', '>')
		buf = strconv.AppendInt(buf, int64(rows[2*k]), 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(rows[2*k+1]), 10)
		buf = append(buf, '\n')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), true
}

// decimalCmp compares the non-negative a and b the way their decimal
// strings compare byte by byte ("1" < "10" < "2").
func decimalCmp(a, b int32) int {
	if a < 10 && b < 10 {
		return cmp.Compare(a, b)
	}
	var x, y [10]byte
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
}

func factorial(k int) int {
	out := 1
	for i := 2; i <= k; i++ {
		out *= i
	}
	return out
}
