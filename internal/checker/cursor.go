package checker

import (
	"fmt"
	"math"

	"rcons/internal/compile"
)

// ShardCursor enumerates the shards of the compiled search lazily, in
// exactly the order Search visits them for c's source type at n
// processes: initial states in InitialStates order, then team-A size
// 1 … n−1, then team-A multisets in nextMultiset order. Each shard is
// the index form of a string shard: the position of its initial state
// in c.InitSeq() and a team-A count per table op index. The table's
// alphabet is spec.CandidateOps in candidate order, so op index k is
// the string shard's position k, and the cursor builds no strings.
//
// A ShardCursor is used by one goroutine at a time.
type ShardCursor struct {
	inits  []uint16
	n      int
	init   int   // position in inits
	a      int   // team-A size; 0 before the first shard
	counts []int // team-A count per table op index
}

// NewShardCursor returns a cursor positioned before the first shard of
// c's search among n processes; c must be the table of the alphabet at
// n. Like Search, it rejects process counts below 2.
func NewShardCursor(c *compile.Compiled, n int) (*ShardCursor, error) {
	cur := new(ShardCursor)
	if err := cur.Reset(c, n); err != nil {
		return nil, err
	}
	return cur, nil
}

// Reset positions cur before the first shard of c's search among n
// processes, as NewShardCursor does, reusing its counts buffer.
func (cur *ShardCursor) Reset(c *compile.Compiled, n int) error {
	if err := checkN(n); err != nil {
		return err
	}
	*cur = ShardCursor{inits: c.InitSeq(), n: n, counts: resize(cur.counts, c.NumOps())}
	return nil
}

func checkN(n int) error {
	if n < 2 {
		return fmt.Errorf("checker: the properties are defined for n ≥ 2, got %d", n)
	}
	return nil
}

// Next advances to the next shard and reports whether there is one.
func (cur *ShardCursor) Next() bool {
	if len(cur.counts) == 0 || cur.init >= len(cur.inits) {
		return false
	}
	if cur.a > 0 && nextMultiset(cur.counts) {
		return true
	}
	if cur.a++; cur.a == cur.n {
		cur.a = 1
		if cur.init++; cur.init == len(cur.inits) {
			return false
		}
	}
	clear(cur.counts)
	cur.counts[0] = cur.a
	return true
}

// Init returns the current shard's position in c.InitSeq().
func (cur *ShardCursor) Init() int { return cur.init }

// Q0 returns the current shard's initial-state table index.
func (cur *ShardCursor) Q0() uint16 { return cur.inits[cur.init] }

// ACounts returns the current shard's team-A count per table op index.
// The slice is overwritten by Next; callers must not mutate it.
func (cur *ShardCursor) ACounts() []int { return cur.counts }

// Len returns the total number of shards, saturating at math.MaxInt:
// per initial state, Σ_{a=1}^{n−1} C(m+a−1, a) = C(m+n−1, n−1) − 1
// team-A multisets over m ops.
func (cur *ShardCursor) Len() int {
	m := len(cur.counts)
	if m == 0 {
		return 0
	}
	per := 1 // C(m+j, j) for j = 0 … n−1
	for j := 1; j < cur.n; j++ {
		if per > math.MaxInt/(m+j) {
			return math.MaxInt
		}
		per = per * (m + j) / j
	}
	per--
	if len(cur.inits) > 0 && per > math.MaxInt/len(cur.inits) {
		return math.MaxInt
	}
	return per * len(cur.inits)
}
