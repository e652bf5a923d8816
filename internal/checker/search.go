package checker

import (
	"context"
	"fmt"

	"rcons/internal/spec"
)

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
	n := 0
	for k := range aCounts {
		n += aCounts[k] + bCounts[k]
	}
	w := Witness{Q0: q0, Teams: make([]int, 0, n), Ops: make([]spec.Op, 0, n)}
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

// shard is one independent slice of the witness enumeration space: the
// initial state and team-A operation multiset are fixed, and the shard
// spans every team-B multiset of size n − |A|. Distinct shards share no
// candidate witness, and the shards of (t, n) jointly cover the whole
// space in Search's order.
type shard struct {
	// q0 is the fixed initial state.
	q0 spec.State
	// ops is the candidate operation alphabet shared by all shards.
	ops []spec.Op
	// aCounts is the fixed per-op count vector for team A
	// (len(aCounts) == len(ops), sum ≥ 1).
	aCounts []int
	// n is the total process count; team B gets n − sum(aCounts)
	// processes.
	n int
}

// teamBSize returns the number of team-B processes in the shard.
func (s shard) teamBSize() int {
	b := s.n
	for _, c := range s.aCounts {
		b -= c
	}
	return b
}

// shards partitions the (t, n) search space into independent shards, in
// exactly the order Search visits them: initial states first, then
// team-A size 1 … n−1, then team-A multisets in the enumeration order
// of multisets. The candidates are every initial state of t and the
// alphabet spec.CandidateOps(t, n). An empty slice (with nil error)
// means the type has no update operations and therefore no witness.
//
// ShardCursor enumerates the same shards in the same order as table
// indices, and builds no shard.
func shards(t spec.Type, n int) ([]shard, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	ops := spec.CandidateOps(t, n)
	if len(ops) == 0 {
		return nil, nil
	}
	var out []shard
	for _, q0 := range t.InitialStates() {
		for a := 1; a < n; a++ {
			multisets(len(ops), a, func(aCounts []int) bool {
				out = append(out, shard{
					q0:      q0,
					ops:     ops,
					aCounts: append([]int(nil), aCounts...),
					n:       n,
				})
				return true
			})
		}
	}
	return out, nil
}

// searchShard verifies the shard's candidate witnesses in enumeration
// order until one passes, verify fails, or ctx is done. It returns nil
// when the shard contains no witness.
func searchShard(ctx context.Context, t spec.Type, s shard, verify VerifyFunc) (*Witness, error) {
	var found *Witness
	var searchErr error
	multisets(len(s.ops), s.teamBSize(), func(bCounts []int) bool {
		if err := ctx.Err(); err != nil {
			searchErr = err
			return false
		}
		w := witnessFromCounts(s.q0, s.ops, s.aCounts, bCounts)
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

// Search is the sequential exhaustive witness search of (t, n): it
// calls verify on each candidate witness in enumeration order until one
// passes, and returns nil when none does. It checks ctx before each
// candidate and returns ctx's error once ctx is done.
//
// The search is exhaustive over the candidate sets, every initial state
// of t and the alphabet spec.CandidateOps(t, n): processes assigned the
// same operation on the same team are interchangeable in Definitions 2
// and 4, so enumerating (initial state × team sizes × per-team
// operation multisets) covers every witness up to symmetry. A negative
// result is therefore a proof of "not n-recording" (resp. "not
// n-discerning") relative to the initial states; for the paper's
// finite-state families those are the full state space, making the
// negative results unconditional.
func Search(ctx context.Context, t spec.Type, n int, verify VerifyFunc) (*Witness, error) {
	all, err := shards(t, n)
	if err != nil {
		return nil, err
	}
	for _, s := range all {
		w, err := searchShard(ctx, t, s, verify)
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
func SearchRecording(t spec.Type, n int) (*Witness, error) {
	return Search(context.Background(), t, n, VerifyRecording)
}

// SearchDiscerning looks for an n-discerning witness (Definition 2) for
// type t. It returns nil if none exists over the candidate sets.
func SearchDiscerning(t spec.Type, n int) (*Witness, error) {
	return Search(context.Background(), t, n, VerifyDiscerning)
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

// ScanMax finds the largest n ≤ limit at which search succeeds, by
// scanning n = 2, 3, … upward and stopping at the first level whose
// search finds no witness. Stopping early is exact because both
// properties are downward closed: an n-recording type is k-recording
// for every 2 ≤ k ≤ n (Observation 6), and an n-discerning witness
// restricts to a (n−1)-discerning one by dropping a process from a
// team of size ≥ 2 — so the set of levels at which a property holds is
// always a prefix {2, …, max}, and no higher success can hide above a
// failure. The closure argument needs each level's candidate sets to
// cover the restricted witnesses, which Search's do, since dropping a
// process only shrinks the ops used.
func ScanMax(limit int, search func(n int) (*Witness, error)) (MaxLevel, error) {
	out := MaxLevel{Max: 1, Limit: limit}
	for n := 2; n <= limit; n++ {
		w, err := search(n)
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
func MaxRecording(t spec.Type, limit int) (MaxLevel, error) {
	return ScanMax(limit, func(n int) (*Witness, error) { return SearchRecording(t, n) })
}

// MaxDiscerning scans the n-discerning property for n = 2 … limit.
func MaxDiscerning(t spec.Type, limit int) (MaxLevel, error) {
	return ScanMax(limit, func(n int) (*Witness, error) { return SearchDiscerning(t, n) })
}
