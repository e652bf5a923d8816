// Package compile turns any spec.Type into a dense, index-based
// transition table — the "compiled core" the hot search paths run on.
//
// The interpreted representation used throughout the repository keeps
// states, operations and responses as canonical strings, so every node
// the checker, engine or model checker explores pays for map lookups,
// string parsing inside Apply, and string-keyed memoization. Compiling
// replaces all of that with two flat arrays indexed by
// state*numOps+op: one for successor states, one for responses. The
// original strings are interned in index order, so anything rendered
// from a compiled run — verdicts, witnesses, fingerprints,
// counterexamples — is byte-identical to the interpreted output.
//
// A Compiled table holds no process count: n only chooses the
// alphabet, so a type without spec.OpsForN has one table at every n
// (see Table). A Dense type, such as an atlas table, is read from its
// arrays; any other type is built by one breadth-first walk per
// alphabet. The engine derives its store keys from the table and
// shares it across the shards of both property scans and, for a type
// without OpsForN, across levels; the model checker shares it across
// runs. Its optional automorphism group (see auto.go) powers
// search-time symmetry reduction.
package compile

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"rcons/internal/atlas"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// StateCap bounds the number of distinct states a compiled table may
// hold. It matches the engine's fingerprint exploration cap and keeps
// indices comfortably inside uint16.
const StateCap = 1 << 14

// Compiled is a spec.Type lowered to dense uint16 index space.
//
// States, ops and responses are assigned indices once at compile time;
// the transition function is the array pair next/resp with
// next[s*numOps+o] the successor state index and resp[s*numOps+o] the
// response index. All slices are immutable after Compile returns, and
// until a Reset rebuilds the table, so a Compiled value is safe for
// concurrent use.
type Compiled struct {
	src      spec.Type
	states   []spec.State
	ops      []spec.Op
	resps    []spec.Response
	nextTab  []uint16
	respTab  []uint16
	initSeq  []uint16 // indices of src.InitialStates(), in its order
	inits    []uint16 // sorted unique indices of src.InitialStates()
	readable bool

	// scratch holds assemble's order, rank and response renumbering;
	// only a table rebuilt by Reset keeps it.
	scratch []uint16

	autoOnce sync.Once
	auto     *Group

	searchOnce sync.Once
	searchErr  error // Searchable's answer

	// stateIdx and opIdx resolve labels to indices. The searches never
	// need them, so index builds them on first use.
	indexOnce sync.Once
	stateIdx  map[spec.State]uint16
	opIdx     map[spec.Op]uint16
}

// Compile lowers t to a dense transition table for searches among n
// processes: Table plus the checks only the compiled search needs (see
// Searchable). Callers that get an error are expected to fall back to
// the sequential interpreted search (checker.Search).
func Compile(t spec.Type, n int) (*Compiled, error) {
	c, err := Table(t, n)
	if err == nil {
		err = c.Searchable()
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Dense is implemented by a spec.Type that already is a dense
// transition table, such as atlas.Table. Its InitialStates are all of
// its states in index order, its Ops are its operations in index order,
// and it does not implement spec.OpsForN, so its alphabet is the same
// at every n.
type Dense interface {
	// DenseTable returns the labels of the states, operations and
	// responses by index, and the transitions: next[s*len(ops)+o] is the
	// successor of state s under op o and resp[s*len(ops)+o] its
	// response. Callers must not mutate the slices.
	DenseTable() (states []spec.State, ops []spec.Op, resps []spec.Response, next, resp []uint8)
}

var _ Dense = (*atlas.Table)(nil)

// Table builds the dense transition table of t among n processes; n
// only chooses the alphabet. The operation alphabet is
// spec.CandidateOps(t, n) — the same alphabet checker.Search
// enumerates, kept in candidate order with any duplicates — and the
// state universe is every state reachable from t's initial states under
// it, so the table is closed: Apply never leaves it. A type without
// spec.OpsForN therefore has one table at every n.
//
// A Dense type's table is read from its arrays. Any other type is
// walked breadth-first, applying each op once per discovered state.
// Either way the states are then sorted by label and the rows remapped
// through the sorted ranks, and responses are numbered by first
// occurrence in sorted row-major order, so both builds of one table are
// equal. Table fails only when an Apply fails or the reachable states
// exceed StateCap, so it succeeds on every type whose fingerprint is
// defined — including tables the compiled search rejects.
func Table(t spec.Type, n int) (*Compiled, error) {
	c := new(Compiled)
	if err := c.Reset(t, n); err != nil {
		return nil, err
	}
	c.scratch = nil
	return c, nil
}

// Reset makes c the table Table builds for t among n processes,
// reusing c's storage and its automorphism group's, so rebuilding a
// table of the same size or smaller allocates nothing when t is Dense.
// Nothing may use c, its group or any slice either returned once Reset
// starts, and after an error c holds no table.
func (c *Compiled) Reset(t spec.Type, n int) error {
	c.autoOnce, c.searchOnce, c.indexOnce = sync.Once{}, sync.Once{}, sync.Once{}
	c.searchErr = nil
	c.stateIdx, c.opIdx = nil, nil
	if d, ok := t.(Dense); ok {
		if _, hasN := t.(spec.OpsForN); !hasN {
			states, ops, resps, next, resp := d.DenseTable()
			assemble(c, t, states, ops, next, resp, resps, nil)
			return nil
		}
	}
	ops := spec.CandidateOps(t, n)
	initial := t.InitialStates()
	// bfs lists the states in discovery order and idx numbers them so;
	// each expanded state appends its row to nexts and rids, with
	// responses numbered by discovery too.
	idx := make(map[spec.State]uint16, len(initial))
	bfs := make([]spec.State, 0, len(initial))
	visit := func(s spec.State) (uint16, error) {
		if i, ok := idx[s]; ok {
			return i, nil
		}
		if len(bfs) >= StateCap {
			return 0, fmt.Errorf("compile %s: reachable states exceed cap %d", t.Name(), StateCap)
		}
		idx[s] = uint16(len(bfs))
		bfs = append(bfs, s)
		return uint16(len(bfs) - 1), nil
	}
	initSeq := resize(c.initSeq, len(initial))
	for i, q0 := range initial {
		j, err := visit(q0)
		if err != nil {
			return err
		}
		initSeq[i] = j
	}
	w := len(ops)
	nexts := make([]uint16, 0, w*len(bfs))
	rids := make([]uint16, 0, w*len(bfs))
	var resps []spec.Response
	respIdx := map[spec.Response]uint16{}
	for i := 0; i < len(bfs); i++ {
		for _, op := range ops {
			ns, r, err := t.Apply(bfs[i], op)
			if err != nil {
				return fmt.Errorf("compile %s: apply %s to %q: %w", t.Name(), op, bfs[i], err)
			}
			j, err := visit(ns)
			if err != nil {
				return err
			}
			ri, ok := respIdx[r]
			if !ok {
				ri = uint16(len(resps))
				respIdx[r] = ri
				resps = append(resps, r)
			}
			nexts = append(nexts, j)
			rids = append(rids, ri)
		}
	}
	assemble(c, t, bfs, ops, nexts, rids, resps, initSeq)
	return nil
}

// resize returns s with length n, reallocating only when it lacks the
// capacity; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// assemble makes c t's table from a table whose states are numbered
// in any order: labels[i] names state i, and nexts/rids hold its row
// (width len(ops)) of successors and response ids, which index
// respLabels. initSeq numbers t's initial states, in their order, in
// storage c may keep; nil means every state, in index order. The
// table's slices reuse c's storage.
//
// The states are sorted by label, and responses renumbered by first
// occurrence in the sorted row-major order, so the result depends only
// on the table, not on the order it was numbered in.
func assemble[I uint8 | uint16](c *Compiled, t spec.Type, labels []spec.State, ops []spec.Op, nexts, rids []I,
	respLabels []spec.Response, initSeq []uint16) {
	// order[k] is the number of the k-th smallest state, and rank its
	// inverse; renum[r] is response r's new number plus one, or 0
	// before its first occurrence.
	S := len(labels)
	c.scratch = resize(c.scratch, 2*S+len(respLabels))
	order, rank, renum := c.scratch[:S], c.scratch[S:2*S], c.scratch[2*S:]
	for i := range order {
		order[i] = uint16(i)
	}
	slices.SortFunc(order, func(a, b uint16) int { return strings.Compare(string(labels[a]), string(labels[b])) })
	c.states = resize(c.states, S)
	for k, i := range order {
		rank[i] = uint16(k)
		c.states[k] = labels[i]
	}
	if initSeq == nil {
		initSeq = append(c.initSeq[:0], rank...)
	} else {
		for i, j := range initSeq {
			initSeq[i] = rank[j]
		}
	}
	w, cells := len(ops), S*len(ops)
	// nextTab and respTab share one array, which nextTab's capacity
	// spans so that the next Reset finds it.
	tabs := resize(c.nextTab[:cap(c.nextTab)], 2*cells)
	c.src, c.ops, c.readable = t, ops, types.Readable(t)
	c.nextTab, c.respTab, c.initSeq = tabs[:cells], tabs[cells:], initSeq
	c.resps = c.resps[:0]
	clear(renum)
	for k, i := range order {
		for o := range w {
			cell := int(i)*w + o
			r := rids[cell]
			if renum[r] == 0 {
				c.resps = append(c.resps, respLabels[r])
				renum[r] = uint16(len(c.resps))
			}
			c.nextTab[k*w+o] = rank[nexts[cell]]
			c.respTab[k*w+o] = renum[r] - 1
		}
	}
	c.inits = append(c.inits[:0], initSeq...)
	slices.Sort(c.inits)
	c.inits = slices.Compact(c.inits)
}

// Searchable reports why the compiled search cannot run on c, or nil
// when it can: the alphabet must be non-empty, free of duplicates and
// made of operations spec.ParseOp accepts, and the type must have an
// initial state. It decides once per table. A table that fails these
// still renders fingerprints; the engine searches its type with the
// sequential interpreted search (checker.Search).
func (c *Compiled) Searchable() error {
	c.searchOnce.Do(func() { c.searchErr = c.searchable() })
	return c.searchErr
}

func (c *Compiled) searchable() error {
	name := c.src.Name()
	if len(c.ops) == 0 {
		return fmt.Errorf("compile %s: type has no update operations", name)
	}
	if len(c.inits) == 0 {
		return fmt.Errorf("compile %s: type has no initial states", name)
	}
	for _, op := range c.ops {
		if _, _, err := spec.ParseOp(op); err != nil {
			return fmt.Errorf("compile %s: %w", name, err)
		}
	}
	// The alphabet holds a handful of ops: compare every pair, and name
	// the least duplicated one.
	var dup spec.Op
	found := false
	for i, op := range c.ops {
		if (!found || op < dup) && slices.Contains(c.ops[:i], op) {
			dup, found = op, true
		}
	}
	if found {
		return fmt.Errorf("compile %s: duplicate operation %q in candidate alphabet", name, dup)
	}
	return nil
}

// index builds the label maps once.
func (c *Compiled) index() {
	c.indexOnce.Do(func() {
		c.stateIdx = make(map[spec.State]uint16, len(c.states))
		for i, s := range c.states {
			c.stateIdx[s] = uint16(i)
		}
		c.opIdx = make(map[spec.Op]uint16, len(c.ops))
		for i := len(c.ops) - 1; i >= 0; i-- {
			c.opIdx[c.ops[i]] = uint16(i) // the first of any duplicates wins
		}
	})
}

// Source returns the interpreted type the table was compiled from.
func (c *Compiled) Source() spec.Type { return c.src }

// NumStates returns the number of states in the table.
func (c *Compiled) NumStates() int { return len(c.states) }

// NumOps returns the number of operations in the table.
func (c *Compiled) NumOps() int { return len(c.ops) }

// NumResps returns the number of distinct responses in the table.
func (c *Compiled) NumResps() int { return len(c.resps) }

// StateIndex resolves a state string to its table index.
func (c *Compiled) StateIndex(s spec.State) (uint16, bool) {
	c.index()
	i, ok := c.stateIdx[s]
	return i, ok
}

// OpIndex resolves an operation string to its table index.
func (c *Compiled) OpIndex(op spec.Op) (uint16, bool) {
	c.index()
	i, ok := c.opIdx[op]
	return i, ok
}

// Alphabet returns the operations by table index: spec.CandidateOps
// of the source type at the n the table was built for, in candidate
// order. Callers must not mutate the slice.
func (c *Compiled) Alphabet() []spec.Op { return c.ops }

// StateAt returns the interned state string for a table index.
func (c *Compiled) StateAt(i uint16) spec.State { return c.states[i] }

// OpAt returns the interned operation string for a table index.
func (c *Compiled) OpAt(i uint16) spec.Op { return c.ops[i] }

// RespAt returns the interned response string for a table index.
func (c *Compiled) RespAt(i uint16) spec.Response { return c.resps[i] }

// Next returns the successor state index of applying op oi in state si.
func (c *Compiled) Next(si, oi uint16) uint16 {
	return c.nextTab[int(si)*len(c.ops)+int(oi)]
}

// Apply is the compiled transition function: a pair of flat array
// lookups, no strings, no allocation.
func (c *Compiled) Apply(si, oi uint16) (next, resp uint16) {
	k := int(si)*len(c.ops) + int(oi)
	return c.nextTab[k], c.respTab[k]
}

// InitIndices returns the (sorted, deduplicated) table indices of the
// source type's initial states. Callers must not mutate the slice.
func (c *Compiled) InitIndices() []uint16 { return c.inits }

// InitSeq returns the table index of each of the source type's initial
// states, in InitialStates order with any duplicates kept. Callers must
// not mutate the slice.
func (c *Compiled) InitSeq() []uint16 { return c.initSeq }

// Readable reports types.Readable of the source type, observed when the
// table was built.
func (c *Compiled) Readable() bool { return c.readable }

// Type returns a spec.Type view of the table: Apply resolves both
// arguments through the index maps and answers from the flat arrays,
// falling back to the source type for states or operations outside the
// table (protocol code occasionally applies richer-argument ops than
// the candidate alphabet). Name, InitialStates and Ops delegate to the
// source, so every rendered artifact is unchanged.
//
// The view preserves the source's spec.OpsForN implementation and its
// types.NonReadable marker, so types.Readable reports the same answer
// for the view as for the source. Note that types.Readable special-cases
// some concrete types (Queue, Stack, Custom); the view freezes the
// answer observed at compile time.
func (c *Compiled) Type() spec.Type {
	_, hasN := c.src.(spec.OpsForN)
	switch {
	case c.readable && !hasN:
		return wrapped{c}
	case c.readable && hasN:
		return wrappedOps{wrapped{c}}
	case !c.readable && !hasN:
		return wrappedNR{wrapped{c}}
	default:
		return wrappedOpsNR{wrappedOps{wrapped{c}}}
	}
}

// wrapped is the spec.Type view over a compiled table.
type wrapped struct{ c *Compiled }

// Name implements spec.Type by delegating to the source type.
func (w wrapped) Name() string { return w.c.src.Name() }

// InitialStates implements spec.Type by delegating to the source type.
func (w wrapped) InitialStates() []spec.State { return w.c.src.InitialStates() }

// Ops implements spec.Type by delegating to the source type.
func (w wrapped) Ops() []spec.Op { return w.c.src.Ops() }

// Apply implements spec.Type via the flat tables, falling back to the
// source for inputs outside the compiled universe.
func (w wrapped) Apply(s spec.State, op spec.Op) (spec.State, spec.Response, error) {
	w.c.index()
	si, ok := w.c.stateIdx[s]
	if !ok {
		return w.c.src.Apply(s, op)
	}
	oi, ok := w.c.opIdx[op]
	if !ok {
		return w.c.src.Apply(s, op)
	}
	k := int(si)*len(w.c.ops) + int(oi)
	return w.c.states[w.c.nextTab[k]], w.c.resps[w.c.respTab[k]], nil
}

// wrappedOps adds the source's OpsForN implementation to the view.
type wrappedOps struct{ wrapped }

// OpsFor implements spec.OpsForN by delegating to the source type.
func (w wrappedOps) OpsFor(n int) []spec.Op { return w.c.src.(spec.OpsForN).OpsFor(n) }

// wrappedNR marks the view of a non-readable source type.
type wrappedNR struct{ wrapped }

// NonReadable implements the types.NonReadable marker.
func (wrappedNR) NonReadable() {}

// wrappedOpsNR combines OpsForN delegation with the NonReadable marker.
type wrappedOpsNR struct{ wrappedOps }

// NonReadable implements the types.NonReadable marker.
func (wrappedOpsNR) NonReadable() {}
