package rc

import (
	"fmt"

	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// TASConsensus is Herlihy's classical 2-process consensus from one
// test&set bit plus input registers. It is a *standard* consensus
// algorithm: correct under halting failures, but NOT recoverable — a
// process that wins the test&set, crashes before acting on the response,
// and retries will see the bit already set and wrongly conclude it lost.
// The lost response cannot be recovered because test&set's state does
// not record WHO set it: exactly the deficiency the paper's n-recording
// property formalizes (test&set is 2-discerning but not 2-recording).
//
// The model-checking experiment (E11) runs this algorithm twice: with a
// crash budget of zero the model checker proves it safe over the whole
// bounded schedule space; with a single crash allowed it finds an
// agreement violation automatically. That pair of verdicts is the
// paper's motivation, executable.
type TASConsensus struct {
	// NS namespaces the shared cells.
	NS string
}

var _ Algorithm = (*TASConsensus)(nil)

// NewTASConsensus returns the 2-process test&set consensus.
func NewTASConsensus(ns string) *TASConsensus { return &TASConsensus{NS: ns} }

// Name implements Algorithm.
func (t *TASConsensus) Name() string { return "tas-consensus" }

// N implements Algorithm: the algorithm is inherently 2-process
// (cons(test&set) = 2).
func (t *TASConsensus) N() int { return 2 }

func (t *TASConsensus) bit() string        { return t.NS + "/T" }
func (t *TASConsensus) inReg(i int) string { return fmt.Sprintf("%s/in[%d]", t.NS, i) }

// Setup implements Algorithm.
func (t *TASConsensus) Setup(m *sim.Memory) {
	m.AddObject(t.bit(), types.TestAndSet{}, "0")
	m.AddRegister(t.inReg(0), sim.None)
	m.AddRegister(t.inReg(1), sim.None)
}

// Body implements Algorithm: write the input, test&set, and decide own
// input on winning (response 0) or the opponent's on losing.
func (t *TASConsensus) Body(i int, input sim.Value) sim.Body {
	if i < 0 || i > 1 {
		panic(fmt.Sprintf("rc: tas-consensus supports processes 0 and 1, got %d", i))
	}
	return func(p *sim.Proc) sim.Value {
		p.Write(t.inReg(i), input)
		if r := p.Apply(t.bit(), spec.Op("tas")); r == "0" {
			return input // won the race
		}
		return p.Read(t.inReg(1 - i)) // lost: adopt the winner's input
	}
}

// TASInstance adapts the (non-recoverable!) test&set consensus into the
// Instance interface, for plugging into Figure 4 as its standard
// consensus building block. Theorem 1's transform needs only a standard
// consensus algorithm — the Round guard ensures each instance is
// accessed at most once per process under SIMULTANEOUS crashes, so even
// this non-recoverable algorithm composes safely there. Under
// INDEPENDENT crashes the same composition violates agreement (a process
// can crash inside an instance before recording its round and re-enter
// it), which experiment E11 demonstrates via exhaustive exploration:
// that contrast is precisely why the paper's independent-crash theory is
// needed.
type TASInstance struct{}

var _ Instance = TASInstance{}

// Decide implements Instance for two processes (0 and 1).
func (TASInstance) Decide(p *sim.Proc, name string, input sim.Value) sim.Value {
	i := p.ID()
	if i < 0 || i > 1 {
		panic(fmt.Sprintf("rc: tas-instance supports processes 0 and 1, got %d", i))
	}
	bit := name + "/T"
	mine := fmt.Sprintf("%s/in[%d]", name, i)
	theirs := fmt.Sprintf("%s/in[%d]", name, 1-i)
	p.EnsureObject(bit, types.TestAndSet{}, "0")
	p.EnsureRegister(mine, sim.None)
	p.EnsureRegister(theirs, sim.None)
	p.Write(mine, input)
	if r := p.Apply(bit, spec.Op("tas")); r == "0" {
		return input
	}
	return p.Read(theirs)
}
