package checker

import (
	"fmt"
	"strconv"

	"rcons/internal/spec"
	"rcons/internal/types"
)

// Unbounded is the upper-band marker meaning "at least the scan limit,
// possibly infinite" (printed as ∞ alongside AtLimit flags).
const Unbounded = 1 << 30

// Classification summarizes what the paper's results let us conclude
// about a type from its maximal discerning/recording levels (Figure 1):
//
//	readable types:   cons(T) = max discerning level          (Theorem 3)
//	                  rcons(T) ≥ max recording level          (Theorem 8)
//	all types:        rcons(T) ≤ max recording level + 1      (Theorem 14)
//	                  rcons(T) ≤ cons(T)                      (trivially)
//	readable types:   cons(T) − 2 ≤ rcons(T)                  (Corollary 17)
type Classification struct {
	// TypeName is the type's display name.
	TypeName string
	// Readable records whether Theorems 3/8 apply (see types.Readable).
	Readable bool
	// Discerning and Recording are the scanned maxima.
	Discerning MaxLevel
	Recording  MaxLevel
	// ConsLo/ConsHi bound cons(T); ConsHi = Unbounded means "≥ limit".
	ConsLo, ConsHi int
	// RconsLo/RconsHi bound rcons(T); RconsHi = Unbounded likewise.
	RconsLo, RconsHi int
}

// Classify scans type t up to the given process-count limit and derives
// the consensus and recoverable-consensus bands.
func Classify(t spec.Type, limit int) (Classification, error) {
	if limit < 2 {
		return Classification{}, fmt.Errorf("checker: classification limit must be ≥ 2, got %d", limit)
	}
	disc, err := MaxDiscerning(t, limit)
	if err != nil {
		return Classification{}, fmt.Errorf("classify %s: %w", t.Name(), err)
	}
	rec, err := MaxRecording(t, limit)
	if err != nil {
		return Classification{}, fmt.Errorf("classify %s: %w", t.Name(), err)
	}
	return Derive(t, disc, rec)
}

// Derive turns scanned discerning/recording maxima into the cons/rcons
// bands the paper's theorems imply. It is shared by the sequential
// Classify above and the concurrent scans in package engine, so both
// produce byte-identical classifications from the same levels.
func Derive(t spec.Type, disc, rec MaxLevel) (Classification, error) {
	c := Classification{
		TypeName:   t.Name(),
		Readable:   types.Readable(t),
		Discerning: disc,
		Recording:  rec,
	}

	// Consensus band. For readable deterministic types Theorem 3 makes
	// the discerning level exact; for non-readable types it is neither a
	// lower nor an upper bound, so we only report the trivial band.
	if c.Readable {
		c.ConsLo = disc.Max
		c.ConsHi = disc.Max
		if disc.AtLimit {
			c.ConsHi = Unbounded
		}
	} else {
		c.ConsLo = 1
		c.ConsHi = Unbounded
	}

	// Recoverable-consensus band.
	c.RconsLo = 1
	if c.Readable {
		// Theorem 8: an n-recording readable type solves n-process RC.
		c.RconsLo = max(1, rec.Max)
	}
	// Theorem 14 (holds for all deterministic types): solving n-process
	// RC for n ≥ 3 requires (n−1)-recording. Failing (rec.Max+1)-recording
	// therefore caps rcons at rec.Max+1 (and at 2 when even 2-recording
	// fails, since rcons = 3 would need 2-recording).
	c.RconsHi = max(rec.Max+1, 2)
	if rec.AtLimit {
		c.RconsHi = Unbounded
	}
	// rcons ≤ cons.
	if c.ConsHi < c.RconsHi {
		c.RconsHi = c.ConsHi
	}
	// Corollary 17 for readable types: rcons ≥ cons − 2.
	if c.Readable && c.ConsLo-2 > c.RconsLo {
		c.RconsLo = c.ConsLo - 2
	}
	if c.RconsLo > c.RconsHi {
		return Classification{}, fmt.Errorf(
			"classify %s: inconsistent bands rcons ∈ [%d, %d] — this contradicts the paper's theorems and indicates a checker bug",
			t.Name(), c.RconsLo, c.RconsHi)
	}
	return c, nil
}

// BandString renders a [lo, hi] band, e.g. "3", "2–3" or "≥5".
func BandString(lo, hi, limit int) string {
	switch {
	case hi >= Unbounded:
		return "≥" + strconv.Itoa(min(lo, limit))
	case lo == hi:
		return strconv.Itoa(lo)
	}
	return strconv.Itoa(lo) + "–" + strconv.Itoa(hi)
}

// ConsBand renders the consensus-number band of c.
func (c Classification) ConsBand() string {
	return BandString(c.ConsLo, c.ConsHi, c.Discerning.Limit)
}

// RconsBand renders the RC-number band of c.
func (c Classification) RconsBand() string {
	return BandString(c.RconsLo, c.RconsHi, c.Recording.Limit)
}

// CombineBounds applies Theorem 22 to a set of classifications: for a
// non-empty set 𝒯 of deterministic readable types,
// max{rcons(T)} ≤ rcons(𝒯) ≤ max{rcons(T)} + 1. It returns the derived
// band for the set (using each type's own band ends conservatively).
func CombineBounds(cs []Classification) (lo, hi int, err error) {
	if len(cs) == 0 {
		return 0, 0, fmt.Errorf("checker: CombineBounds needs at least one type")
	}
	for _, c := range cs {
		if !c.Readable {
			return 0, 0, fmt.Errorf("checker: Theorem 22 applies to readable types; %s is not readable", c.TypeName)
		}
		lo = max(lo, c.RconsLo)
		hi = max(hi, c.RconsHi)
	}
	if hi < Unbounded {
		hi++ // the "+1" slack of Theorem 22
	}
	return lo, hi, nil
}
