package atlas

import (
	"encoding/hex"
	"fmt"
	"slices"
)

// Bounds delimits an enumeration block: every table with at most States
// states, at most Ops operations and at most Resps distinct responses.
type Bounds struct {
	States int `json:"states"`
	Ops    int `json:"ops"`
	Resps  int `json:"resps"`
}

// Valid checks the bounds are usable by Enumerate (its canonical check
// needs the permutation caps).
func (b Bounds) Valid() error {
	if b.States < 1 || b.States > CanonMaxStates {
		return fmt.Errorf("atlas: bounds states must be in 1..%d, got %d", CanonMaxStates, b.States)
	}
	if b.Ops < 1 || b.Ops > CanonMaxOps {
		return fmt.Errorf("atlas: bounds ops must be in 1..%d, got %d", CanonMaxOps, b.Ops)
	}
	if b.Resps < 1 {
		return fmt.Errorf("atlas: bounds resps must be ≥ 1, got %d", b.Resps)
	}
	return nil
}

// String renders the bounds, e.g. "≤3 states, ≤3 ops, ≤1 resps".
func (b Bounds) String() string {
	return fmt.Sprintf("≤%d states, ≤%d ops, ≤%d resps", b.States, b.Ops, b.Resps)
}

// RawCount returns the number of raw tables a full Enumerate counts,
// skipped blocks included: for each (s, o) block, s^(s·o) next
// assignments times the number of response assignments in
// restricted-growth form with at most Resps classes. It overflows to a
// saturated math guard at 2^62 so callers can budget before
// enumerating.
func (b Bounds) RawCount() int64 {
	const sat = int64(1) << 62
	total := int64(0)
	for s := 1; s <= b.States; s++ {
		for o := 1; o <= b.Ops; o++ {
			cells := s * o
			block := int64(1)
			for i := 0; i < cells; i++ {
				if block > sat/int64(s) {
					return sat
				}
				block *= int64(s)
			}
			r := rgsCount(cells, b.Resps)
			if r == 0 || block > sat/r {
				return sat
			}
			block *= r
			if total > sat-block {
				return sat
			}
			total += block
		}
	}
	return total
}

// rgsCount counts restricted-growth strings of length m with at most r
// classes (= the number of partitions of m labeled cells into ≤ r
// response classes).
func rgsCount(m, r int) int64 {
	r = min(r, m) // a string of length m uses at most m classes
	// f[k] = number of partial strings using exactly k classes so far.
	f := make([]int64, r+1)
	f[0] = 1
	for i := 0; i < m; i++ {
		nf := make([]int64, r+1)
		for k := 0; k <= r; k++ {
			if f[k] == 0 {
				continue
			}
			if k >= 1 {
				nf[k] += f[k] * int64(k) // reuse one of the k classes
			}
			if k < r {
				nf[k+1] += f[k] // open a new class
			}
		}
		f = nf
	}
	var out int64
	for k := 1; k <= r; k++ {
		out += f[k]
	}
	if m == 0 {
		out = 1
	}
	return out
}

// Enumerate visits every deterministic readable type within bounds
// exactly once up to relabeling. It iterates the raw transition tables
// of each (states, ops) block in turn: next assignments as a base-s
// odometer, and for each of them the response assignments as
// restricted-growth strings, so response relabelings are never
// generated in the first place. A restricted-growth string is its own
// first-occurrence renaming, so a raw table's bytes are its encoding
// under the identity relabeling, and each relabeling class has exactly
// one raw table whose bytes are the class's canonical encoding.
// Enumerate yields that table and no other: a raw table is yielded when
// no state × operation relabeling encodes it strictly smaller. No table
// is minimized and nothing is deduplicated.
//
// The encoding puts every next byte before any response byte, so each
// next assignment is checked once: if a relabeling makes its next part
// strictly smaller, its whole block of response assignments is skipped
// (and still counted in raw); otherwise only the relabelings that tie
// on the next part are tried against each response assignment.
//
// Each class is yielded at its canonical raw table, so classes come in
// odometer × restricted-growth order of their canonical encodings,
// which is deterministic. The Table is the canonical representative,
// labeled "atlas:<key>" with its full canonical key.
//
// yield returns false to stop early. Enumerate reports the raw and
// canonical (yielded) counts; raw counts every raw table up to the
// stop, including those of skipped blocks, so a full run reports
// b.RawCount().
func Enumerate(b Bounds, yield func(key string, t *Table) bool) (raw, kept int, err error) {
	if err := b.Valid(); err != nil {
		return 0, 0, err
	}
	var c canonicalizer
	for s := 1; s <= b.States; s++ {
		for o := 1; o <= b.Ops; o++ {
			cells := s * o
			block := int(rgsCount(cells, b.Resps)) // response assignments per next assignment
			// c.best is the raw table's own encoding: the odometer
			// advances its next and resp parts in place.
			c.size(3 + 2*cells)
			enc := c.best
			clear(enc)
			enc[0], enc[1] = byte(s), byte(o)
			next, resp := enc[3:3+cells], enc[3+cells:]
			for {
				if !c.nextMinimal(s, o, next) {
					raw += block
				} else {
					// All response assignments for this next vector, in
					// restricted-growth order.
					clear(resp)
					for {
						raw++
						used := int(slices.Max(resp)) + 1 // classes in the restricted-growth string
						if c.respMinimal(o, used, resp) {
							enc[2] = byte(used)
							kept++
							t := fromCanonical(enc)
							t.label = labelFor(enc)
							if !yield(t.label[len(labelPrefix):], t) {
								return raw, kept, nil
							}
						}
						if !rgsNext(resp, b.Resps) {
							break
						}
					}
				}
				// Advance the next-state odometer.
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
	return raw, kept, nil
}

// labelPrefix starts the display name of a generated type.
const labelPrefix = "atlas:"

// labelFor derives the deterministic display name of a generated type
// from its canonical encoding: labelPrefix and the full canonical key
// (the hex encoding) in one buffer, so the key is a substring of the
// label and the two cost two allocations, the buffer and its string.
// The full key is used: prefixes are not unique (keys share their
// leading dimension/transition bytes).
func labelFor(enc []byte) string {
	buf := make([]byte, len(labelPrefix)+hex.EncodedLen(len(enc)))
	hex.Encode(buf[copy(buf, labelPrefix):], enc)
	return string(buf)
}

// rgsNext advances resp, a restricted-growth string (resp[0] = 0 and
// resp[i] ≤ max(resp[:i])+1) with at most rmax classes, to its
// lexicographic successor in place, and reports false when resp was the
// last one. Starting from all zeros, it visits every such string once.
func rgsNext(resp []uint8, rmax int) bool {
	for i := len(resp) - 1; i > 0; i-- {
		if int(resp[i]) < rmax-1 && resp[i] <= slices.Max(resp[:i]) {
			resp[i]++
			clear(resp[i+1:])
			return true
		}
	}
	return false
}
