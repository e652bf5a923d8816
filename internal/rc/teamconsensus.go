package rc

import (
	"fmt"

	"rcons/internal/checker"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// TeamConsensus is the Figure 2 algorithm: recoverable *team* consensus
// among the n processes of an n-recording witness, using one readable
// object O of the witnessed type plus one register per team.
//
// Preconditions (the caller's obligations, checked by NewTeamConsensus):
//
//   - the type is deterministic and readable;
//   - the witness satisfies Definition 4 (verified via the checker);
//   - all processes on the same team are given the same input value
//     (that is what makes it *team* consensus; Tournament lifts it to
//     full RC).
//
// The code below transcribes Figure 2 line by line. The paper's code
// assumes q0 ∉ Q_B; when instead q0 ∈ Q_B (and hence q0 ∉ Q_A, by
// condition 1), the roles of the two teams are swapped, exactly as the
// proof of Theorem 8 prescribes.
type TeamConsensus struct {
	typ     spec.Type
	witness checker.Witness
	// objO, regA and regB name the shared cells O, R_A and R_B in the
	// instance's namespace; they are built once, not on every access.
	objO, regA, regB string

	qa, qb  map[spec.State]bool // Q sets for the *role* teams (post-swap)
	roleOf  []int               // role (roleA/roleB) of each process
	swapped bool                // true when witness teams were swapped
	sizeB   int                 // |B| in role terms (the paper's |B|)
	variant Variant             // VariantPaper unless built for a demo
}

const (
	roleA = 0
	roleB = 1
)

var _ Algorithm = (*TeamConsensus)(nil)

// NewTeamConsensus validates the witness and prepares the algorithm.
// ns namespaces the shared cells so that many instances can coexist in
// one memory (the tournament needs that).
func NewTeamConsensus(t spec.Type, w checker.Witness, ns string) (*TeamConsensus, error) {
	if !types.Readable(t) {
		return nil, fmt.Errorf("rc: Theorem 8 requires a readable type; %s is not readable", t.Name())
	}
	res, err := checker.VerifyRecording(t, w)
	if err != nil {
		return nil, fmt.Errorf("rc: verifying witness: %w", err)
	}
	if !res.OK {
		return nil, fmt.Errorf("rc: witness is not %d-recording: %s", w.N(), res.Reason)
	}
	qa, err := checker.QSet(t, w, checker.TeamA)
	if err != nil {
		return nil, err
	}
	qb, err := checker.QSet(t, w, checker.TeamB)
	if err != nil {
		return nil, err
	}

	tc := &TeamConsensus{typ: t, witness: w, objO: ns + "/O", regA: ns + "/RA", regB: ns + "/RB"}
	// Figure 2 assumes q0 ∉ Q_B; otherwise swap the teams' roles.
	if qb[w.Q0] {
		tc.swapped = true
		tc.qa, tc.qb = qb, qa
	} else {
		tc.qa, tc.qb = qa, qb
	}
	tc.roleOf = make([]int, w.N())
	for i, team := range w.Teams {
		role := roleA
		if (team == checker.TeamB) != tc.swapped {
			role = roleB
		}
		tc.roleOf[i] = role
	}
	for _, r := range tc.roleOf {
		if r == roleB {
			tc.sizeB++
		}
	}
	return tc, nil
}

// Name implements Algorithm.
func (tc *TeamConsensus) Name() string {
	return fmt.Sprintf("team-consensus[%s]", tc.typ.Name())
}

// N implements Algorithm.
func (tc *TeamConsensus) N() int { return tc.witness.N() }

// RoleTeams returns, for each process, whether it plays the paper's team
// A (false) or team B (true) after any swap. Tests use it to construct
// admissible team inputs.
func (tc *TeamConsensus) RoleTeams() []bool {
	out := make([]bool, len(tc.roleOf))
	for i, r := range tc.roleOf {
		out[i] = r == roleB
	}
	return out
}

// Setup implements Algorithm: object O in state q0, registers R_A and
// R_B initialized to ⊥ (Figure 2 lines 1–3).
func (tc *TeamConsensus) Setup(m *sim.Memory) {
	m.AddObject(tc.objO, tc.typ, tc.witness.Q0)
	m.AddRegister(tc.regA, sim.None)
	m.AddRegister(tc.regB, sim.None)
}

// EnsureCells lazily creates the algorithm's shared cells from inside a
// body (idempotent). This lets constructions that mint RC instances
// dynamically — such as the universal construction's per-node next
// pointers — run team consensus without pre-registering every instance.
func (tc *TeamConsensus) EnsureCells(p *sim.Proc) {
	p.EnsureObject(tc.objO, tc.typ, tc.witness.Q0)
	p.EnsureRegister(tc.regA, sim.None)
	p.EnsureRegister(tc.regB, sim.None)
}

// Body implements Algorithm, dispatching on the process's role.
func (tc *TeamConsensus) Body(i int, input sim.Value) sim.Body {
	op := tc.witness.Ops[i]
	if tc.roleOf[i] == roleA {
		return tc.bodyA(op, input)
	}
	return tc.bodyB(op, input)
}

// bodyA is Figure 2 lines 4–14 (process p_i on team A).
func (tc *TeamConsensus) bodyA(op spec.Op, v sim.Value) sim.Body {
	return func(p *sim.Proc) sim.Value {
		p.Write(tc.regA, v)        // line 5:  R_A ← v
		q := p.ReadObject(tc.objO) // line 6:  q ← O
		if q == tc.witness.Q0 {    // line 7:  if q = q0
			p.Apply(tc.objO, op)      // line 8:  apply op_i to O
			q = p.ReadObject(tc.objO) // line 9: q ← O
		}
		if tc.qa[q] { // line 11: if q ∈ Q_A
			return p.Read(tc.regA)
		}
		return p.Read(tc.regB) // line 12
	}
}

// bodyB is Figure 2 lines 15–29 (process p_i on team B). The |B| = 1
// yielding rule of line 19 is what makes the algorithm safe when Q_A can
// return to q0; the package tests replay the paper's two "bad scenario"
// schedules to show both halves of the rule are necessary.
func (tc *TeamConsensus) bodyB(op spec.Op, v sim.Value) sim.Body {
	return func(p *sim.Proc) sim.Value {
		p.Write(tc.regB, v)        // line 16: R_B ← v
		q := p.ReadObject(tc.objO) // line 17: q ← O
		if q == tc.witness.Q0 {    // line 18: if q = q0
			if tc.yieldApplies() {
				if ra := p.Read(tc.regA); ra != sim.None { // line 19
					return ra // line 20: return R_A
				}
				p.Apply(tc.objO, op)      // line 22
				q = p.ReadObject(tc.objO) // line 23
			} else {
				p.Apply(tc.objO, op)      // line 22
				q = p.ReadObject(tc.objO) // line 23
			}
		}
		if tc.qa[q] { // line 26: if q ∈ Q_A
			return p.Read(tc.regA)
		}
		return p.Read(tc.regB) // line 27
	}
}

// TeamInputs builds an admissible input vector for the team consensus:
// every process on role-team A gets inputA, every process on role-team B
// gets inputB.
func (tc *TeamConsensus) TeamInputs(inputA, inputB sim.Value) []sim.Value {
	out := make([]sim.Value, tc.N())
	for i, r := range tc.roleOf {
		if r == roleA {
			out[i] = inputA
		} else {
			out[i] = inputB
		}
	}
	return out
}
