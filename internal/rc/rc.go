// Package rc implements the paper's recoverable consensus (RC)
// algorithms — the primary contribution of "When Is Recoverable Consensus
// Harder Than Consensus?" (PODC 2022):
//
//   - TeamConsensus: the Figure 2 algorithm solving *recoverable team
//     consensus* from a single readable object of an n-recording type
//     plus two registers (the sufficiency half of the characterization,
//     Theorem 8);
//   - Tournament: the Appendix B reduction from recoverable team
//     consensus to full recoverable consensus (Proposition 30);
//   - SimultaneousRC: the Figure 4 / Appendix A transform showing RC is
//     exactly as hard as standard consensus under *simultaneous* crashes
//     (Theorem 1);
//   - CASConsensus: the classical compare&swap consensus, which is
//     natively recoverable and serves both as a baseline and as the
//     consensus building block inside the other constructions.
//
// All algorithms run on the package sim substrate; the recoverable
// wait-freedom, agreement and validity properties are checked on every
// execution by CheckOutcome.
package rc

import (
	"fmt"

	"rcons/internal/compile"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// Algorithm is a recoverable consensus protocol for a fixed set of
// processes: Setup installs its shared cells into a memory, and Body
// yields process i's code for a given input value. Bodies must be safe to
// re-execute from the beginning after a crash — that is the whole point.
type Algorithm interface {
	// Name identifies the algorithm (for tables and traces).
	Name() string
	// N returns the number of processes the instance supports.
	N() int
	// Setup creates the algorithm's shared cells in m.
	Setup(m *sim.Memory)
	// Body returns the code process i runs to decide on input.
	Body(i int, input sim.Value) sim.Body
}

// CheckOutcome validates the two safety properties of recoverable
// consensus on a finished execution:
//
//   - agreement: all produced outputs are equal (the simulator guarantees
//     a process outputs at most once, so cross-run agreement is implied);
//   - validity: the common output is the input of some process.
//
// Recoverable wait-freedom is enforced by the simulator itself
// (sim.ErrRunBudget fails any run that exceeds its step bound).
func CheckOutcome(inputs []sim.Value, out *sim.Outcome) error {
	decided := ""
	have := false
	for i, ok := range out.Decided {
		if !ok {
			continue
		}
		d := out.Decisions[i]
		if !have {
			decided, have = d, true
			continue
		}
		if d != decided {
			return fmt.Errorf("rc: agreement violated: process %d decided %q, earlier decision was %q", i, d, decided)
		}
	}
	if !have {
		return nil // nothing decided (e.g. partial scripted execution)
	}
	for _, in := range inputs {
		if in == decided {
			return nil
		}
	}
	return fmt.Errorf("rc: validity violated: decision %q is not any process's input %v", decided, inputs)
}

// Run is a convenience harness: it sets up alg in a fresh memory, runs
// the bodies for the given inputs under cfg, and validates the outcome.
// It returns the outcome for further inspection.
func Run(alg Algorithm, inputs []sim.Value, cfg sim.Config) (*sim.Outcome, error) {
	if len(inputs) != alg.N() {
		return nil, fmt.Errorf("rc: %s wants %d inputs, got %d", alg.Name(), alg.N(), len(inputs))
	}
	m := sim.NewMemory()
	alg.Setup(m)
	bodies := make([]sim.Body, alg.N())
	for i := range bodies {
		bodies[i] = alg.Body(i, inputs[i])
	}
	out, err := sim.NewRunner(m, bodies, cfg).Run()
	if err != nil {
		return out, fmt.Errorf("rc: %s: %w", alg.Name(), err)
	}
	if err := CheckOutcome(inputs, out); err != nil {
		return out, fmt.Errorf("%s: %w", alg.Name(), err)
	}
	return out, nil
}

// Instance is a dynamically instantiable recoverable consensus object
// addressed by name, used by constructions that need unboundedly many RC
// instances (the universal construction's per-node next-pointers and the
// Figure 4 round objects). Decide must be idempotent across crashes of
// the calling process and linearizable across processes.
//
// Contract on input drift (the paper's Appendix F remark): a caller that
// crashes and recovers may re-invoke Decide on the same instance with a
// DIFFERENT input. Implementations must tolerate this — either because
// the decision mechanism is insensitive to later proposals (CASInstance:
// the object is write-once) or by pinning the first proposal in a
// per-(instance, process) register (TournamentInstance). Violating this
// contract breaks agreement; see the regression test
// universal.TestTournamentRCHeavyCrashStress.
//
// Values must not contain the characters ',' or ')' (they are carried
// inside operation encodings).
type Instance interface {
	// Decide proposes input to the named RC instance (created on first
	// use) and returns the agreed value.
	Decide(p *sim.Proc, name string, input sim.Value) sim.Value
}

// CASInstance implements Instance with one compare&swap object per
// consensus instance: propose by cas(⊥, input), then read the winner.
// Compare&swap retains its full consensus power under crashes — the
// checker shows it is n-recording for every n — so this is the canonical
// RC building block.
type CASInstance struct{}

var _ Instance = CASInstance{}

// casType is the object type of every CASInstance object and casPrefix
// the input-independent part of its cas(⊥, input) proposal, both built
// once; the type holds no per-object state, so instances share it.
var (
	casType   = types.NewCAS()
	casPrefix = "cas(" + types.Bottom + ","
)

// Decide implements Instance.
func (CASInstance) Decide(p *sim.Proc, name string, input sim.Value) sim.Value {
	p.EnsureObject(name, casType, spec.State(types.Bottom))
	p.Apply(name, spec.Op(casPrefix+string(input)+")"))
	return sim.Value(p.ReadObject(name))
}

// CASConsensus is the baseline Algorithm built on a single CAS object.
type CASConsensus struct {
	// Procs is the number of participating processes.
	Procs int
	// NS namespaces the shared object so instances can coexist.
	NS string

	// typ and obj are the object's type and name, built once by
	// NewCASConsensus.
	typ spec.Type
	obj string
}

var _ Algorithm = (*CASConsensus)(nil)

// NewCASConsensus returns a CAS-based RC algorithm for n processes. Its
// object runs on compare&swap's dense transition table for n processes
// (compile.Compile), which renders the same states and responses as the
// interpreted type; proposals outside the table's alphabet (cas(⊥, i)
// for i < n) fall back to the interpreted Apply.
func NewCASConsensus(n int, ns string) *CASConsensus {
	var typ spec.Type = types.NewCAS()
	if c, err := compile.Compile(typ, n); err == nil {
		typ = c.Type()
	}
	return &CASConsensus{Procs: n, NS: ns, typ: typ, obj: ns + "/O"}
}

// Name implements Algorithm.
func (c *CASConsensus) Name() string { return "cas-consensus" }

// N implements Algorithm.
func (c *CASConsensus) N() int { return c.Procs }

// Setup implements Algorithm.
func (c *CASConsensus) Setup(m *sim.Memory) {
	m.AddObject(c.obj, c.typ, spec.State(types.Bottom))
}

// Body implements Algorithm. The algorithm is naturally recoverable: the
// CAS object is write-once, so re-executing after a crash either loses
// the race (reading the established winner) or finds its own earlier
// proposal installed.
func (c *CASConsensus) Body(i int, input sim.Value) sim.Body {
	obj, op := c.obj, spec.FormatOp("cas", types.Bottom, input)
	return func(p *sim.Proc) sim.Value {
		p.Apply(obj, op)
		return sim.Value(p.ReadObject(obj))
	}
}
