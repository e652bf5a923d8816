package engine

import (
	"bytes"
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
// It deliberately does NOT replace Fingerprint as the engine's store
// key: stored witnesses name concrete states and operations, so serving
// a witness computed for an isomorphic-but-differently-labelled type
// would hand the caller op strings its type does not accept. Canonical
// fingerprints are an identity for humans and APIs (rcserve reports
// them), not a cache key.
//
// ok is false when the type cannot be canonicalized: an oversized state
// space, a transition error, or more operations/initial states than the
// permutation caps allow.
func CanonicalFingerprint(t spec.Type, n int) (fp string, ok bool) {
	c, err := compile.Table(t, n)
	if err != nil {
		return "", false
	}
	inits := c.InitSeq()
	nOps := c.NumOps()
	if nOps == 0 || len(inits) == 0 ||
		nOps > canonicalOpCap || len(inits) > canonicalInitCap {
		return "", false
	}
	if factorial(nOps)*factorial(len(inits)) > canonicalComboCap {
		return "", false
	}
	stateID := make([]int32, c.NumStates())   // discovery number, -1 if unseen
	respID := make([]int32, c.NumResps())     // first-occurrence number, -1 if unseen
	order := make([]uint16, 0, c.NumStates()) // states in discovery order
	intern := func(s uint16) int64 {
		if stateID[s] < 0 {
			stateID[s] = int32(len(order))
			order = append(order, s)
		}
		return int64(stateID[s])
	}
	var enc, best []byte
	for _, opPerm := range atlas.Permutations(nOps) {
		for _, initPerm := range atlas.Permutations(len(inits)) {
			// Render the table reachable from the initial states in
			// initPerm's order under the ops in opPerm's order, using only
			// discovery indices: no label survives into the encoding.
			for i := range stateID {
				stateID[i] = -1
			}
			for i := range respID {
				respID[i] = -1
			}
			order = order[:0]
			resps := int32(0)
			enc = append(enc[:0], "n_ops="...)
			enc = strconv.AppendInt(enc, int64(nOps), 10)
			enc = append(enc, "\ninit="...)
			for _, j := range initPerm {
				enc = strconv.AppendInt(enc, intern(inits[j]), 10)
				enc = append(enc, ',')
			}
			enc = append(enc, '\n')
			for i := 0; i < len(order); i++ { // order grows as states are discovered
				for j, o := range opPerm {
					ns, r := c.Apply(order[i], uint16(o))
					if respID[r] < 0 {
						respID[r] = resps
						resps++
					}
					enc = strconv.AppendInt(enc, int64(i), 10)
					enc = append(enc, '.')
					enc = strconv.AppendInt(enc, int64(j), 10)
					enc = append(enc, '-', '>')
					enc = strconv.AppendInt(enc, intern(ns), 10)
					enc = append(enc, '/')
					enc = strconv.AppendInt(enc, int64(respID[r]), 10)
					enc = append(enc, '\n')
				}
			}
			if best == nil || bytes.Compare(enc, best) < 0 {
				best = append(best[:0], enc...)
			}
		}
	}
	sum := sha256.Sum256(best)
	return hex.EncodeToString(sum[:]), true
}

func factorial(k int) int {
	out := 1
	for i := 2; i <= k; i++ {
		out *= i
	}
	return out
}
