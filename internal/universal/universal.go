// Package universal implements RUniversal, the recoverable universal
// construction of the paper's Section 4 (pseudocode in Figure 7 /
// Appendix F): a wait-free, crash-recoverable linearizable implementation
// of an arbitrary deterministic object type from recoverable consensus
// instances and registers in non-volatile memory.
//
// The construction maintains a linked list of operation nodes; the list
// order is the linearization order. Each node's next pointer is decided
// by a recoverable consensus instance; processes announce their
// operations and help each other append (round-robin priority on the
// announce array), which yields wait-freedom. Recovery after a crash
// simply re-runs the pending operation: a per-(process, operation)
// announce slot in non-volatile memory makes re-execution idempotent, so
// an operation that already took effect is never applied twice and its
// persisted response is returned again — the paper's detectability
// property.
package universal

import (
	"fmt"
	"strconv"

	"rcons/internal/history"
	"rcons/internal/rc"
	"rcons/internal/sim"
	"rcons/internal/spec"
)

// Universal is a recoverable universal implementation of one object.
type Universal struct {
	// N is the number of client processes.
	N int
	// Typ and Init define the implemented object's sequential behaviour.
	Typ  spec.Type
	Init spec.State
	// NS namespaces the construction's shared cells.
	NS string
	// RC supplies the per-node recoverable consensus instances; defaults
	// to rc.CASInstance via New.
	RC rc.Instance
	// Rec, when non-nil, records the operation history for
	// linearizability checking.
	Rec *history.Recorder

	// announces and heads name the Announce[i] and Head[i] registers;
	// slotPre[i] is the name prefix of process i's slot[i][k] registers,
	// whose operation index k is unbounded. New builds them once.
	announces, heads, slotPre []string
}

// New returns a universal construction for n processes implementing an
// object of type t initialized to q0.
func New(n int, t spec.Type, q0 spec.State, ns string) *Universal {
	u := &Universal{N: n, Typ: t, Init: q0, NS: ns, RC: rc.CASInstance{},
		announces: make([]string, n), heads: make([]string, n), slotPre: make([]string, n)}
	for i := range n {
		u.announces[i] = fmt.Sprintf("%s/Announce[%d]", ns, i)
		u.heads[i] = fmt.Sprintf("%s/Head[%d]", ns, i)
		u.slotPre[i] = fmt.Sprintf("%s/slot[%d][", ns, i)
	}
	return u
}

// Shared cell names. A "node" nd is a name prefix; its fields are the
// registers nd.seq / nd.op / nd.state / nd.resp, and its next pointer is
// the RC instance named nd.next.
func (u *Universal) announce(i int) string { return u.announces[i] }
func (u *Universal) head(i int) string     { return u.heads[i] }
func (u *Universal) slot(i, k int) string  { return u.slotPre[i] + strconv.Itoa(k) + "]" }
func (u *Universal) dummy() string         { return u.NS + "/node0" }

func fieldSeq(nd string) string   { return nd + ".seq" }
func fieldOp(nd string) string    { return nd + ".op" }
func fieldState(nd string) string { return nd + ".state" }
func fieldResp(nd string) string  { return nd + ".resp" }
func fieldNext(nd string) string  { return nd + ".next" }

// fieldNextWinner caches the decided value of nd's next-pointer RC
// instance in a plain register, so that the final list can be walked
// after an execution regardless of how the RC instance represents its
// decision internally (a single CAS object, a whole tournament, …).
func fieldNextWinner(nd string) string { return nd + ".nextWinner" }

// Setup creates the dummy node (seq = 1, holding the initial state) and
// the announce/head arrays, all pointing at the dummy (Figure 7 lines
// 97–99).
func (u *Universal) Setup(m *sim.Memory) {
	d := u.dummy()
	m.AddRegister(fieldSeq(d), "1")
	m.AddRegister(fieldOp(d), sim.None)
	m.AddRegister(fieldState(d), sim.Value(u.Init))
	m.AddRegister(fieldResp(d), sim.None)
	for i := 0; i < u.N; i++ {
		m.AddRegister(u.announce(i), d)
		m.AddRegister(u.head(i), d)
	}
}

// allocNode prepares a fresh node in non-volatile memory with seq = 0 and
// the given operation. The node is private until published through an
// announce slot, so a crash mid-allocation merely leaks an unreachable
// node.
func (u *Universal) allocNode(p *sim.Proc, op spec.Op) string {
	nd := p.AllocRegister(u.NS+"/node", "0") // nd itself is the seq field… see below
	// AllocRegister created a register named nd holding "0"; use it as
	// the seq field directly and add the remaining fields.
	return u.initNodeFields(p, nd, op)
}

func (u *Universal) initNodeFields(p *sim.Proc, nd string, op spec.Op) string {
	// The allocated register nd serves as a name anchor; real fields are
	// nd.seq etc. Initialize them (idempotence is irrelevant: an
	// unpublished node is invisible).
	p.EnsureRegister(fieldSeq(nd), "0")
	p.EnsureRegister(fieldOp(nd), sim.Value(op))
	p.EnsureRegister(fieldState(nd), sim.None)
	p.EnsureRegister(fieldResp(nd), sim.None)
	return nd
}

// Invoke executes the k-th operation of process i on the implemented
// object and returns its response. It is the body-side entry point
// (Universal + Recover of Figure 7 fused): calling it again after a
// crash resumes the same operation instead of creating a new one.
func (u *Universal) Invoke(p *sim.Proc, i, k int, op spec.Op) spec.Response {
	if u.Rec != nil {
		u.Rec.Invoke(i, k, op, p.Now())
	}
	// Persistent announce slot: at most one node per (process, op index),
	// across any number of crashes (lines 117–120 made recoverable).
	slot := u.slot(i, k)
	p.EnsureRegister(slot, sim.None)
	nd := p.Read(slot)
	if nd == sim.None {
		nd = u.allocNode(p, op)
		p.Write(slot, nd)
	}
	p.Write(u.announce(i), nd)

	// Refresh Head[i] from the other processes (lines 121–125).
	for j := 0; j < u.N; j++ {
		hj := p.Read(u.head(j))
		if u.seqOf(p, hj) > u.seqOf(p, p.Read(u.head(i))) {
			p.Write(u.head(i), hj)
		}
	}

	resp := u.applyOperation(p, i, nd)
	if u.Rec != nil {
		u.Rec.Return(i, k, resp, p.Now())
	}
	return resp
}

func (u *Universal) seqOf(p *sim.Proc, nd string) int {
	v, err := strconv.Atoi(p.Read(fieldSeq(nd)))
	if err != nil {
		panic(fmt.Sprintf("universal: corrupt seq of %s: %v", nd, err))
	}
	return v
}

// applyOperation is Figure 7 lines 100–115: help append announced nodes
// until our own node nd has been appended, then return its response.
func (u *Universal) applyOperation(p *sim.Proc, i int, nd string) spec.Response {
	for p.Read(fieldSeq(nd)) == "0" { // line 101
		h := p.Read(u.head(i))
		hseq := u.seqOf(p, h)
		priority := (hseq + 1) % u.N // line 102
		annP := p.Read(u.announce(priority))
		var pointer string
		if p.Read(fieldSeq(annP)) == "0" { // line 103
			pointer = annP // line 104: help the priority process
		} else {
			pointer = p.Read(u.announce(i)) // line 106: my own operation
		}
		// line 108: agree on the next node via recoverable consensus.
		winner := u.RC.Decide(p, fieldNext(h), pointer)
		// Cache the decision in a register for post-execution list
		// walking. Creation-if-missing suffices: RC agreement makes
		// every process's value identical, so this is observationally
		// part of the Decide step (and costs no scheduling point).
		p.EnsureRegister(fieldNextWinner(h), winner)
		// line 110: compute and persist the winner's state & response.
		st := spec.State(p.Read(fieldState(h)))
		op := spec.Op(p.Read(fieldOp(winner)))
		ns, resp, err := u.Typ.Apply(st, op)
		if err != nil {
			panic(fmt.Sprintf("universal: applying %s to %q: %v", op, st, err))
		}
		p.Write(fieldState(winner), sim.Value(ns))
		p.Write(fieldResp(winner), sim.Value(resp))
		p.Write(fieldSeq(winner), strconv.Itoa(hseq+1)) // line 111
		p.Write(u.head(i), winner)                      // line 112
	}
	return spec.Response(p.Read(fieldResp(nd))) // line 114
}

// ListedOp is one appended node as seen when walking the final list.
type ListedOp struct {
	Node  string
	Seq   int
	Op    spec.Op
	State spec.State
	Resp  spec.Response
}

// ListOrder walks the construction's linked list in memory after an
// execution finishes, returning the appended operations in linearization
// order (excluding the dummy). Tests use it to validate the construction
// against the sequential specification.
func (u *Universal) ListOrder(m *sim.Memory) ([]ListedOp, error) {
	var out []ListedOp
	nd := u.dummy()
	for {
		next := fieldNextWinner(nd)
		if !m.HasRegister(next) {
			return out, nil // next pointer not yet decided (or cached)
		}
		winner := m.PeekRegister(next)
		if winner == sim.None {
			return out, nil
		}
		seq, err := strconv.Atoi(m.PeekRegister(fieldSeq(winner)))
		if err != nil {
			return nil, fmt.Errorf("universal: corrupt node %s: %w", winner, err)
		}
		out = append(out, ListedOp{
			Node:  winner,
			Seq:   seq,
			Op:    spec.Op(m.PeekRegister(fieldOp(winner))),
			State: spec.State(m.PeekRegister(fieldState(winner))),
			Resp:  spec.Response(m.PeekRegister(fieldResp(winner))),
		})
		nd = winner
	}
}

// VerifyList replays the final list against the sequential specification:
// sequence numbers must be consecutive, each node's persisted state and
// response must equal the specification's output, and no node may appear
// twice. This is the construction-level correctness check; package
// history provides the client-level linearizability check.
func (u *Universal) VerifyList(m *sim.Memory) error {
	list, err := u.ListOrder(m)
	if err != nil {
		return err
	}
	state := u.Init
	seen := map[string]bool{}
	for idx, node := range list {
		if seen[node.Node] {
			return fmt.Errorf("universal: node %s appended twice", node.Node)
		}
		seen[node.Node] = true
		if node.Seq != idx+2 { // dummy has seq 1
			return fmt.Errorf("universal: node %s has seq %d at position %d", node.Node, node.Seq, idx)
		}
		ns, resp, err := u.Typ.Apply(state, node.Op)
		if err != nil {
			return fmt.Errorf("universal: replay: %w", err)
		}
		if ns != node.State || resp != node.Resp {
			return fmt.Errorf("universal: node %s persisted (%q,%q), spec says (%q,%q)",
				node.Node, node.State, node.Resp, ns, resp)
		}
		state = ns
	}
	return nil
}
