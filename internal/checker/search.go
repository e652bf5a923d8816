package checker

import (
	"context"
	"fmt"

	"rcons/internal/spec"
)

// SearchOptions configures witness searches. The zero value means "derive
// candidates from the type": initial states from Type.InitialStates and
// the operation alphabet from spec.CandidateOps.
//
// The searches are exhaustive over the candidate sets: because processes
// assigned the same operation on the same team are interchangeable in
// Definitions 2 and 4, enumerating (initial state × team sizes ×
// per-team operation multisets) covers every witness up to symmetry.
// A negative search result is therefore a proof of "not n-recording"
// (resp. "not n-discerning") relative to the candidate state set; for the
// paper's finite-state families the candidate set is the full state
// space, making the negative results unconditional.
type SearchOptions struct {
	// States are the candidate initial states q0.
	States []spec.State
	// Ops is the candidate operation alphabet.
	Ops []spec.Op
}

func (o *SearchOptions) fill(t spec.Type, n int) ([]spec.State, []spec.Op) {
	states := t.InitialStates()
	ops := spec.CandidateOps(t, n)
	if o != nil {
		if len(o.States) > 0 {
			states = o.States
		}
		if len(o.Ops) > 0 {
			ops = o.Ops
		}
	}
	return states, ops
}

// VerifyFunc is a property verifier for one candidate witness:
// VerifyRecording or VerifyDiscerning.
type VerifyFunc func(spec.Type, Witness) (Result, error)

// multisets enumerates all multisets of size k over m symbols, invoking
// yield with a count vector of length m for each, in nextMultiset's
// order. yield must not retain the slice. It returns false if yield
// returned false (early stop).
func multisets(m, k int, yield func(counts []int) bool) bool {
	if m == 0 {
		return k != 0 || yield(nil)
	}
	counts := make([]int, m)
	counts[0] = k
	for {
		if !yield(counts) {
			return false
		}
		if !nextMultiset(counts) {
			return true
		}
	}
}

// nextMultiset advances counts to the next multiset of the same size,
// in the order that starts with everything in slot 0 and counts each
// slot down before the slots after it, like nested loops over slots
// 0 … m−2 with the last slot taking the remainder: for m = 3, k = 2
// that is (2,0,0) (1,1,0) (1,0,1) (0,2,0) (0,1,1) (0,0,2). It reports
// false, leaving counts unchanged, after the last one.
func nextMultiset(counts []int) bool {
	last := len(counts) - 1
	for p := last - 1; p >= 0; p-- {
		if counts[p] > 0 {
			// Slots p+1 … last−1 are empty: move one from p, and the
			// last slot's remainder, to p+1.
			r := counts[last] + 1
			counts[p]--
			counts[last] = 0
			counts[p+1] = r
			return true
		}
	}
	return false
}

// witnessFromCounts materializes a concrete witness from per-team
// operation multisets: team A processes come first, then team B.
func witnessFromCounts(q0 spec.State, ops []spec.Op, aCounts, bCounts []int) Witness {
	w := Witness{Q0: q0}
	for k, c := range aCounts {
		for i := 0; i < c; i++ {
			w.Teams = append(w.Teams, TeamA)
			w.Ops = append(w.Ops, ops[k])
		}
	}
	for k, c := range bCounts {
		for i := 0; i < c; i++ {
			w.Teams = append(w.Teams, TeamB)
			w.Ops = append(w.Ops, ops[k])
		}
	}
	return w
}

// Shard is one independent slice of the witness enumeration space: the
// initial state and team-A operation multiset are fixed, and the shard
// spans every team-B multiset of size N − |A|. Distinct shards share no
// candidate witness, and the shards for (t, n) jointly cover the whole
// space, so they can be verified concurrently (package engine) or in
// sequence (searchWitness below) with identical outcomes.
type Shard struct {
	// Q0 is the fixed initial state.
	Q0 spec.State
	// Ops is the candidate operation alphabet shared by all shards.
	Ops []spec.Op
	// ACounts is the fixed per-op count vector for team A
	// (len(ACounts) == len(Ops), sum ≥ 1).
	ACounts []int
	// N is the total process count; team B gets N − sum(ACounts)
	// processes.
	N int
}

// teamBSize returns the number of team-B processes in the shard.
func (s Shard) teamBSize() int {
	b := s.N
	for _, c := range s.ACounts {
		b -= c
	}
	return b
}

// Shards partitions the (t, n, opts) search space into independent
// shards, in exactly the order searchWitness visits them: initial states
// first, then team-A size 1 … n−1, then team-A multisets in the
// enumeration order of multisets. An empty slice (with nil error) means
// the type has no update operations and therefore no witness.
//
// String shards serve the interpreted searches, the parity oracle. The
// compiled search enumerates the same shards in the same order as table
// indices through ShardCursor, and builds no Shard.
func Shards(t spec.Type, n int, opts *SearchOptions) ([]Shard, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	states, ops := opts.fill(t, n)
	if len(ops) == 0 {
		return nil, nil
	}
	var out []Shard
	for _, q0 := range states {
		for a := 1; a < n; a++ {
			multisets(len(ops), a, func(aCounts []int) bool {
				out = append(out, Shard{
					Q0:      q0,
					Ops:     ops,
					ACounts: append([]int(nil), aCounts...),
					N:       n,
				})
				return true
			})
		}
	}
	return out, nil
}

// SearchShard verifies the shard's candidate witnesses in enumeration
// order until one passes, verify fails, or ctx is cancelled. It returns
// nil when the shard contains no witness.
func SearchShard(ctx context.Context, t spec.Type, s Shard, verify VerifyFunc) (*Witness, error) {
	var found *Witness
	var searchErr error
	multisets(len(s.Ops), s.teamBSize(), func(bCounts []int) bool {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				searchErr = err
				return false
			}
		}
		w := witnessFromCounts(s.Q0, s.Ops, s.ACounts, bCounts)
		res, err := verify(t, w)
		if err != nil {
			searchErr = err
			return false
		}
		if res.OK {
			found = &w
			return false
		}
		return true
	})
	if searchErr != nil {
		return nil, searchErr
	}
	return found, nil
}

// searchWitness runs the shared exhaustive enumeration, calling verify on
// each candidate witness until one passes. It is the sequential driver
// over Shards/SearchShard; package engine provides the concurrent one.
func searchWitness(
	t spec.Type, n int, opts *SearchOptions,
	verify VerifyFunc,
) (*Witness, error) {
	shards, err := Shards(t, n, opts)
	if err != nil {
		return nil, err
	}
	for _, s := range shards {
		w, err := SearchShard(context.Background(), t, s, verify)
		if err != nil {
			return nil, err
		}
		if w != nil {
			return w, nil
		}
	}
	return nil, nil
}

// SearchRecording looks for an n-recording witness (Definition 4) for
// type t. It returns nil if none exists over the candidate sets.
func SearchRecording(t spec.Type, n int, opts *SearchOptions) (*Witness, error) {
	return searchWitness(t, n, opts, VerifyRecording)
}

// SearchDiscerning looks for an n-discerning witness (Definition 2) for
// type t. It returns nil if none exists over the candidate sets.
func SearchDiscerning(t spec.Type, n int, opts *SearchOptions) (*Witness, error) {
	return searchWitness(t, n, opts, VerifyDiscerning)
}

// MaxLevel is the result of scanning a property up to a process-count
// limit.
type MaxLevel struct {
	// Max is the largest n ≤ Limit at which the property holds; 1 means
	// the property fails already at n = 2 (both properties are defined
	// only for n ≥ 2).
	Max int
	// AtLimit is true when the property still holds at n = Limit, i.e.
	// the true maximum may exceed Limit (e.g. compare&swap, which is
	// n-recording for every n).
	AtLimit bool
	// Limit echoes the scan bound.
	Limit int
	// Witness is a witness at level Max (nil when Max = 1).
	Witness *Witness
}

// String renders the level, e.g. "3" or "≥8".
func (m MaxLevel) String() string {
	if m.AtLimit {
		return fmt.Sprintf("≥%d", m.Limit)
	}
	return fmt.Sprintf("%d", m.Max)
}

// scanMax finds the largest n ≤ limit at which search succeeds, by
// scanning n = 2, 3, … upward and stopping at the first level whose
// search finds no witness. Stopping early is exact because both
// properties are downward closed: an n-recording type is k-recording
// for every 2 ≤ k ≤ n (Observation 6), and an n-discerning witness
// restricts to a (n−1)-discerning one by dropping a process from a
// team of size ≥ 2 — so the set of levels at which a property holds is
// always a prefix {2, …, max}, and no higher success can hide above a
// failure. This closure argument assumes the candidate sets cover the
// restricted witnesses, which holds for SearchOptions derived from the
// type (the default) since dropping a process only shrinks the ops
// used; with hand-picked candidate sets the result is still a sound
// lower bound on the maximum.
func scanMax(
	t spec.Type, limit int, opts *SearchOptions,
	search func(spec.Type, int, *SearchOptions) (*Witness, error),
) (MaxLevel, error) {
	out := MaxLevel{Max: 1, Limit: limit}
	for n := 2; n <= limit; n++ {
		w, err := search(t, n, opts)
		if err != nil {
			return MaxLevel{}, err
		}
		if w == nil {
			return out, nil
		}
		out.Max = n
		out.Witness = w
	}
	out.AtLimit = true
	return out, nil
}

// MaxRecording scans the n-recording property for n = 2 … limit.
func MaxRecording(t spec.Type, limit int, opts *SearchOptions) (MaxLevel, error) {
	return scanMax(t, limit, opts, SearchRecording)
}

// MaxDiscerning scans the n-discerning property for n = 2 … limit.
func MaxDiscerning(t spec.Type, limit int, opts *SearchOptions) (MaxLevel, error) {
	return scanMax(t, limit, opts, SearchDiscerning)
}
