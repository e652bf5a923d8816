// Package atlas generates the "type universe" the census pipeline
// surveys: machine-made deterministic readable types, produced three
// ways —
//
//   - exhaustive enumeration of all small transition tables up to
//     (states, ops, resps) bounds, yielding only the raw tables that
//     are already their own canonical form, so each relabeling class is
//     visited exactly once with no dedup (Enumerate);
//   - seeded random sampling of larger tables (Random), the same
//     generator the checker's brute-force differential tests draw from;
//   - mutation of the hand-written zoo types (Tabulate + Mutate): edge
//     rewires, response merges and readability toggles applied to a
//     type's explicit transition table.
//
// Everything is emitted as a spec.Type — either the package's dense
// Table representation or a types.Custom transition table — so the
// checker, the classification engine and the census (package
// atlas/census) consume generated types exactly like hand-written ones.
//
// The package deliberately depends only on spec and types, so test
// packages anywhere (including internal/checker's own tests) can import
// it without import cycles.
package atlas

import (
	"fmt"
	"math/rand"
	"strconv"

	"rcons/internal/spec"
	"rcons/internal/types"
)

// MaxStates bounds the state count of a Table (indices are stored as
// bytes; the generator never needs more).
const MaxStates = 255

// Table is a dense, index-encoded finite deterministic readable type:
// states 0..S-1, operations 0..O-1 and responses 0..R-1, with the
// transition function stored as flat next/resp arrays indexed by
// s*O + o. States render as "s0", "s1", …, operations as "o0", … and
// responses as "r0", … .
//
// Every state is a candidate initial state (InitialStates returns all
// of them), and a Table is always readable in the paper's sense; the
// non-readable corner of the universe is covered by types.Custom values
// produced by Tabulate/Mutate. A Table is immutable after construction
// and safe for concurrent use.
type Table struct {
	states, ops, resps int
	next, resp         []uint8
	label              string
}

// The labels of every index a Table can use, rendered once: a Table's
// states, operations and responses are prefixes of these slices, and
// Apply resolves labels through the shared index maps. Nothing writes
// them after package initialization, so Tables share them freely and
// constructing one formats no names.
var (
	stateNames = indexNames[spec.State]("s")
	opNames    = indexNames[spec.Op]("o")
	respNames  = indexNames[spec.Response]("r")
	stateIndex = nameIndex(stateNames)
	opIndex    = nameIndex(opNames)
)

func indexNames[N ~string](prefix string) []N {
	out := make([]N, MaxStates)
	for i := range out {
		out[i] = N(prefix + strconv.Itoa(i))
	}
	return out
}

func nameIndex[N comparable](names []N) map[N]int {
	idx := make(map[N]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return idx
}

var _ spec.Type = (*Table)(nil)

// NewTable builds a Table from its dimensions and flat transition
// arrays (next[s*ops+o] is the successor state, resp[s*ops+o] the
// response index). It validates that every entry is in range.
func NewTable(states, ops, resps int, next, resp []uint8) (*Table, error) {
	if states < 1 || states > MaxStates {
		return nil, fmt.Errorf("atlas: states must be in 1..%d, got %d", MaxStates, states)
	}
	if ops < 1 || ops > MaxStates {
		return nil, fmt.Errorf("atlas: ops must be in 1..%d, got %d", MaxStates, ops)
	}
	if resps < 1 || resps > MaxStates {
		return nil, fmt.Errorf("atlas: resps must be in 1..%d, got %d", MaxStates, resps)
	}
	if len(next) != states*ops || len(resp) != states*ops {
		return nil, fmt.Errorf("atlas: need %d next/resp entries, got %d/%d",
			states*ops, len(next), len(resp))
	}
	for i := range next {
		if int(next[i]) >= states {
			return nil, fmt.Errorf("atlas: next[%d]=%d out of range (states=%d)", i, next[i], states)
		}
		if int(resp[i]) >= resps {
			return nil, fmt.Errorf("atlas: resp[%d]=%d out of range (resps=%d)", i, resp[i], resps)
		}
	}
	return newTable(states, ops, resps, next, resp), nil
}

// newTable copies next and resp into one fresh backing array; the
// caller has validated them.
func newTable(states, ops, resps int, next, resp []uint8) *Table {
	cells := states * ops
	buf := make([]uint8, 2*cells)
	copy(buf, next)
	copy(buf[cells:], resp)
	return &Table{states: states, ops: ops, resps: resps, next: buf[:cells:cells], resp: buf[cells:]}
}

// Random draws a table with transition and response entries uniform over
// the given dimensions — the acid-test generator the checker's
// brute-force differential tests (and the census's sampling stage) use.
// It panics on invalid dimensions; callers pass literals or validated
// bounds. The rng consumption order (next then resp, row-major) is part
// of the contract: a fixed seed always yields the same table.
func Random(rng *rand.Rand, states, ops, resps int) *Table {
	next := make([]uint8, states*ops)
	resp := make([]uint8, states*ops)
	for s := 0; s < states; s++ {
		for o := 0; o < ops; o++ {
			next[s*ops+o] = uint8(rng.Intn(states))
			resp[s*ops+o] = uint8(rng.Intn(resps))
		}
	}
	t, err := NewTable(states, ops, resps, next, resp)
	if err != nil {
		panic(fmt.Sprintf("atlas: Random(%d,%d,%d): %v", states, ops, resps, err))
	}
	t.label = fmt.Sprintf("random(%d,%d)", states, ops)
	return t
}

// WithLabel returns a copy of t whose Name reports label. The transition
// arrays are shared (Tables are immutable).
func (t *Table) WithLabel(label string) *Table {
	c := *t
	c.label = label
	return &c
}

// NumStates returns the state count.
func (t *Table) NumStates() int { return t.states }

// NumOps returns the operation count.
func (t *Table) NumOps() int { return t.ops }

// NumResps returns the response-alphabet size.
func (t *Table) NumResps() int { return t.resps }

// Dims renders the dimensions compactly, e.g. "3s2o1r".
func (t *Table) Dims() string {
	return strconv.Itoa(t.states) + "s" + strconv.Itoa(t.ops) + "o" + strconv.Itoa(t.resps) + "r"
}

// Name implements spec.Type.
func (t *Table) Name() string {
	if t.label != "" {
		return t.label
	}
	return "atlas(" + t.Dims() + ")"
}

// InitialStates implements spec.Type: every state is a candidate.
func (t *Table) InitialStates() []spec.State {
	return append([]spec.State(nil), stateNames[:t.states]...)
}

// Ops implements spec.Type.
func (t *Table) Ops() []spec.Op {
	return append([]spec.Op(nil), opNames[:t.ops]...)
}

// Apply implements spec.Type.
func (t *Table) Apply(s spec.State, op spec.Op) (spec.State, spec.Response, error) {
	si, ok := stateIndex[s]
	if !ok || si >= t.states {
		return "", "", fmt.Errorf("%w: %q", spec.ErrBadState, s)
	}
	oi, ok := opIndex[op]
	if !ok || oi >= t.ops {
		return "", "", fmt.Errorf("%w: %q", spec.ErrBadOp, op)
	}
	i := si*t.ops + oi
	return stateNames[t.next[i]], respNames[t.resp[i]], nil
}

// DenseTable returns the labels of t's states, operations and
// responses by index, and its transition arrays, indexed s*ops + o.
// The slices are shared; callers must not mutate them. It lets the
// compiler (package compile) read t without walking Apply.
func (t *Table) DenseTable() (states []spec.State, ops []spec.Op, resps []spec.Response, next, resp []uint8) {
	return stateNames[:t.states:t.states], opNames[:t.ops:t.ops], respNames[:t.resps:t.resps], t.next, t.resp
}

// Custom converts the table to an equivalent types.Custom transition
// table (all states initial, readable), e.g. for JSON export.
func (t *Table) Custom() *types.Custom {
	tr := make(map[string]map[string]types.CustomEdge, t.states)
	for s := 0; s < t.states; s++ {
		row := make(map[string]types.CustomEdge, t.ops)
		for o := 0; o < t.ops; o++ {
			i := s*t.ops + o
			row[string(opNames[o])] = types.CustomEdge{
				Next: string(stateNames[t.next[i]]),
				Resp: string(respNames[t.resp[i]]),
			}
		}
		tr[string(stateNames[s])] = row
	}
	initial := make([]string, t.states)
	for s := 0; s < t.states; s++ {
		initial[s] = string(stateNames[s])
	}
	return &types.Custom{TypeName: t.Name(), Initial: initial, Transitions: tr}
}
