// Package checker implements decision procedures for the two structural
// properties at the heart of the paper "When Is Recoverable Consensus
// Harder Than Consensus?" (PODC 2022):
//
//   - the n-discerning property (Definition 2, due to Ruppert), which
//     characterizes the deterministic readable types that solve standard
//     n-process wait-free consensus (Theorem 3); and
//   - the n-recording property (Definition 4), which this paper
//     introduces: n-recording is sufficient (Theorem 8) and
//     (n-1)-recording necessary (Theorem 14) for solving n-process
//     recoverable consensus with independent crashes.
//
// Both properties quantify over sequences of *distinct* processes, so the
// checker collapses processes that are assigned the same operation and on
// the same team into counts, exploring the (state × remaining-counts)
// graph with memoization. This makes verification exact and fast even for
// exhaustive witness searches (all initial states × all team partitions ×
// all operation assignments), which is how the "not k-recording" /
// "not k-discerning" claims of Propositions 19 and 21 are reproduced.
package checker

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rcons/internal/spec"
)

// TeamA and TeamB identify the two teams in a witness.
const (
	TeamA = 0
	TeamB = 1
)

// Witness is a candidate assignment for Definition 2 / Definition 4: an
// initial state, a partition of n processes into two non-empty teams, and
// an update operation per process.
type Witness struct {
	// Q0 is the initial object state.
	Q0 spec.State
	// Teams assigns each process (by index) to TeamA or TeamB.
	Teams []int
	// Ops assigns each process its update operation.
	Ops []spec.Op
}

// N returns the number of processes in the witness.
func (w Witness) N() int { return len(w.Teams) }

// TeamSize returns the number of processes on team x.
func (w Witness) TeamSize(x int) int {
	n := 0
	for _, t := range w.Teams {
		if t == x {
			n++
		}
	}
	return n
}

// Members returns the (sorted) process indices on team x.
func (w Witness) Members(x int) []int {
	var out []int
	for i, t := range w.Teams {
		if t == x {
			out = append(out, i)
		}
	}
	return out
}

// Validate reports whether the witness is structurally well-formed.
func (w Witness) Validate() error {
	if len(w.Teams) != len(w.Ops) {
		return fmt.Errorf("checker: %d team labels but %d ops", len(w.Teams), len(w.Ops))
	}
	if len(w.Teams) < 2 {
		return fmt.Errorf("checker: witness needs at least 2 processes, got %d", len(w.Teams))
	}
	for i, t := range w.Teams {
		if t != TeamA && t != TeamB {
			return fmt.Errorf("checker: process %d has invalid team %d", i, t)
		}
	}
	if w.TeamSize(TeamA) == 0 || w.TeamSize(TeamB) == 0 {
		return fmt.Errorf("checker: both teams must be non-empty (|A|=%d, |B|=%d)",
			w.TeamSize(TeamA), w.TeamSize(TeamB))
	}
	return nil
}

// String renders the witness compactly, e.g.
// "q0=_,0,0 A={0:opA 1:opA} B={2:opB}".
func (w Witness) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "q0=%s", w.Q0)
	for _, team := range []struct {
		id   int
		name string
	}{{TeamA, "A"}, {TeamB, "B"}} {
		fmt.Fprintf(&b, " %s={", team.name)
		first := true
		for _, i := range w.Members(team.id) {
			if !first {
				b.WriteByte(' ')
			}
			first = false
			fmt.Fprintf(&b, "%d:%s", i, w.Ops[i])
		}
		b.WriteByte('}')
	}
	return b.String()
}

// alphabet deduplicates the operations appearing in a witness, returning
// the distinct ops (sorted, for determinism) and, per team, the count of
// processes assigned each op.
func (w Witness) alphabet() (ops []spec.Op, counts [2][]int) {
	set := map[spec.Op]bool{}
	for _, op := range w.Ops {
		set[op] = true
	}
	for op := range set {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	idx := make(map[spec.Op]int, len(ops))
	for k, op := range ops {
		idx[op] = k
	}
	counts[0] = make([]int, len(ops))
	counts[1] = make([]int, len(ops))
	for i, op := range w.Ops {
		counts[w.Teams[i]][idx[op]]++
	}
	return ops, counts
}

// appendCountsKey appends the memo key of state s, remaining-counts
// vector rem and the explorer's extra marks to b.
func appendCountsKey(b []byte, s spec.State, rem []int, extra ...string) []byte {
	b = append(b, s...)
	b = append(b, '|')
	for _, c := range rem {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	for _, x := range extra {
		b = append(b, x...)
	}
	return b
}

// qExplorer computes Q_X sets by DFS over (state, remaining counts).
type qExplorer struct {
	t    spec.Type
	ops  []spec.Op
	seen map[string]bool
	out  map[spec.State]bool
	err  error
	key  []byte // memo key buffer
}

func (e *qExplorer) dfs(s spec.State, rem []int) {
	if e.err != nil {
		return
	}
	e.key = appendCountsKey(e.key[:0], s, rem)
	if e.seen[string(e.key)] {
		return
	}
	e.seen[string(e.key)] = true
	e.out[s] = true
	for k := range rem {
		if rem[k] == 0 {
			continue
		}
		ns, _, err := e.t.Apply(s, e.ops[k])
		if err != nil {
			e.err = fmt.Errorf("checker: Q exploration: %w", err)
			return
		}
		rem[k]--
		e.dfs(ns, rem)
		rem[k]++
	}
}

// QSet computes Q_X(q0, op_1, …, op_n) of Definition 4 for the witness's
// team x: the set of states reachable from w.Q0 by applying the
// operations of a sequence of distinct processes whose first process is
// on team x. The initial state itself is a member only if some such
// sequence returns to it.
func QSet(t spec.Type, w Witness, x int) (map[spec.State]bool, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	ops, counts := w.alphabet()
	merged := make([]int, len(ops))
	for k := range ops {
		merged[k] = counts[0][k] + counts[1][k]
	}
	e := &qExplorer{t: t, ops: ops, seen: map[string]bool{}, out: map[spec.State]bool{}}
	for k := range ops {
		if counts[x][k] == 0 {
			continue
		}
		ns, _, err := t.Apply(w.Q0, ops[k])
		if err != nil {
			return nil, fmt.Errorf("checker: Q first step: %w", err)
		}
		merged[k]--
		e.dfs(ns, merged)
		merged[k]++
		if e.err != nil {
			return nil, e.err
		}
	}
	return e.out, nil
}

// Result is the outcome of a property verification: OK, or a
// human-readable reason the property fails.
type Result struct {
	OK     bool
	Reason string
}

func fail(format string, args ...any) Result {
	return Result{Reason: fmt.Sprintf(format, args...)}
}

// VerifyRecording checks whether the witness satisfies all three
// conditions of Definition 4 (the n-recording property) for type t.
func VerifyRecording(t spec.Type, w Witness) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	qa, err := QSet(t, w, TeamA)
	if err != nil {
		return Result{}, err
	}
	qb, err := QSet(t, w, TeamB)
	if err != nil {
		return Result{}, err
	}
	for s := range qa {
		if qb[s] {
			return fail("condition 1: state %q is in both Q_A and Q_B", s), nil
		}
	}
	if qa[w.Q0] && w.TeamSize(TeamB) != 1 {
		return fail("condition 2: q0 ∈ Q_A but |B| = %d ≠ 1", w.TeamSize(TeamB)), nil
	}
	if qb[w.Q0] && w.TeamSize(TeamA) != 1 {
		return fail("condition 3: q0 ∈ Q_B but |A| = %d ≠ 1", w.TeamSize(TeamA)), nil
	}
	return Result{OK: true}, nil
}

// RPair is an element of the R_{X,j} sets of Definition 2: the response r
// that process j's operation returned in some admissible sequence and the
// state q the object was left in at the end of that sequence.
type RPair struct {
	Resp  spec.Response
	State spec.State
}

// rExplorer computes R_{X,j} sets by DFS over
// (state, remaining counts, j-used, j-response).
type rExplorer struct {
	t    spec.Type
	ops  []spec.Op
	opJ  spec.Op
	seen map[string]bool
	out  map[RPair]bool
	err  error
	key  []byte // memo key buffer
}

func (e *rExplorer) dfs(s spec.State, rem []int, jUsed bool, jResp spec.Response) {
	if e.err != nil {
		return
	}
	if jUsed {
		e.key = appendCountsKey(e.key[:0], s, rem, "+", string(jResp))
	} else {
		e.key = appendCountsKey(e.key[:0], s, rem, "!")
	}
	if e.seen[string(e.key)] {
		return
	}
	e.seen[string(e.key)] = true
	if jUsed {
		e.out[RPair{Resp: jResp, State: s}] = true
	}
	for k := range rem {
		if rem[k] == 0 {
			continue
		}
		ns, _, err := e.t.Apply(s, e.ops[k])
		if err != nil {
			e.err = fmt.Errorf("checker: R exploration: %w", err)
			return
		}
		rem[k]--
		e.dfs(ns, rem, jUsed, jResp)
		rem[k]++
	}
	if !jUsed {
		ns, r, err := e.t.Apply(s, e.opJ)
		if err != nil {
			e.err = fmt.Errorf("checker: R exploration: %w", err)
			return
		}
		e.dfs(ns, rem, true, r)
	}
}

// RSet computes R_{X,j}(q0, op_1, …, op_n) of Definition 2 for the
// witness's team x and process j: all (response, final state) pairs that
// op_j can produce in a sequence of distinct processes including j whose
// first process is on team x.
func RSet(t spec.Type, w Witness, x, j int) (map[RPair]bool, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if j < 0 || j >= w.N() {
		return nil, fmt.Errorf("checker: process index %d out of range", j)
	}
	// Build the alphabet over all processes except j; j is tracked
	// individually because its response matters.
	others := Witness{Q0: w.Q0}
	for i := range w.Teams {
		if i == j {
			continue
		}
		others.Teams = append(others.Teams, w.Teams[i])
		others.Ops = append(others.Ops, w.Ops[i])
	}
	set := map[spec.Op]bool{}
	for _, op := range others.Ops {
		set[op] = true
	}
	var ops []spec.Op
	for op := range set {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, k int) bool { return ops[i] < ops[k] })
	idx := make(map[spec.Op]int, len(ops))
	for k, op := range ops {
		idx[op] = k
	}
	countsX := make([]int, len(ops))
	merged := make([]int, len(ops))
	for i, op := range others.Ops {
		merged[idx[op]]++
		if others.Teams[i] == x {
			countsX[idx[op]]++
		}
	}

	e := &rExplorer{t: t, ops: ops, opJ: w.Ops[j], seen: map[string]bool{}, out: map[RPair]bool{}}
	// Case 1: process j goes first (only admissible if j is on team x).
	if w.Teams[j] == x {
		ns, r, err := t.Apply(w.Q0, w.Ops[j])
		if err != nil {
			return nil, fmt.Errorf("checker: R first step: %w", err)
		}
		e.dfs(ns, merged, true, r)
	}
	// Case 2: another process on team x goes first.
	for k := range ops {
		if countsX[k] == 0 {
			continue
		}
		ns, _, err := t.Apply(w.Q0, ops[k])
		if err != nil {
			return nil, fmt.Errorf("checker: R first step: %w", err)
		}
		merged[k]--
		e.dfs(ns, merged, false, "")
		merged[k]++
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.out, nil
}

// VerifyDiscerning checks whether the witness satisfies Definition 2 (the
// n-discerning property) for type t: R_{A,j} ∩ R_{B,j} = ∅ for every j.
func VerifyDiscerning(t spec.Type, w Witness) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	for j := 0; j < w.N(); j++ {
		ra, err := RSet(t, w, TeamA, j)
		if err != nil {
			return Result{}, err
		}
		rb, err := RSet(t, w, TeamB, j)
		if err != nil {
			return Result{}, err
		}
		for p := range ra {
			if rb[p] {
				return fail("R_{A,%d} ∩ R_{B,%d} contains (resp=%q, state=%q)",
					j, j, p.Resp, p.State), nil
			}
		}
	}
	return Result{OK: true}, nil
}
