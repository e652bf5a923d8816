package mc

import (
	"fmt"
	"sort"

	"rcons/internal/checker"
	"rcons/internal/compile"
	"rcons/internal/rc"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
	"rcons/internal/universal"
)

// compiledSpec lowers a builtin target's object type to its dense
// transition-table view, so every protocol step the simulator executes
// during model checking is two array reads instead of an interpreted
// Apply (state-string parsing, map lookups). The view renders identical
// state/response strings, so schedules, fingerprints and
// counterexamples are byte-for-byte unchanged. Types the compiler
// cannot handle run interpreted, and operations outside the compiled
// alphabet fall back per call inside the view.
func compiledSpec(t spec.Type, n int) spec.Type {
	if c, err := compile.Compile(t, n); err == nil {
		return c.Type()
	}
	return t
}

// FromAlgorithm wraps an rc.Algorithm as a model-checking target: each
// Factory call sets the algorithm up in a new memory and builds its
// bodies, and rc.CheckOutcome validates every execution.
func FromAlgorithm(alg rc.Algorithm, inputs []sim.Value, model sim.FailureModel) (Target, error) {
	if len(inputs) != alg.N() {
		return Target{}, fmt.Errorf("mc: %s wants %d inputs, got %d", alg.Name(), alg.N(), len(inputs))
	}
	return Target{
		Name:  alg.Name(),
		Model: model,
		Factory: func() (*sim.Memory, []sim.Body, []sim.Value) {
			m := sim.NewMemory()
			alg.Setup(m)
			bodies := make([]sim.Body, alg.N())
			for i := range bodies {
				bodies[i] = alg.Body(i, inputs[i])
			}
			return m, bodies, inputs
		},
		Check: OutcomeCheck(rc.CheckOutcome),
	}, nil
}

// snWitness replicates the S_n witness from the proof of Proposition 21
// (harness.SnPaperWitness; duplicated here because harness builds its
// experiments on top of this package).
func snWitness(n int) checker.Witness {
	w := checker.Witness{Q0: types.SnInitial, Teams: []int{checker.TeamA}, Ops: []spec.Op{"opA"}}
	for i := 1; i < n; i++ {
		w.Teams = append(w.Teams, checker.TeamB)
		w.Ops = append(w.Ops, "opB")
	}
	return w
}

// casWitness is the canonical n-recording compare&swap witness: the
// first a processes form team A, and process i applies the i-th
// operation of the type's n-process alphabet, cas(⊥, i), so every
// process proposes a distinct value and every step stays inside the
// compiled table (compiledSpec).
func casWitness(a, n int) checker.Witness {
	w := checker.Witness{Q0: spec.State(types.Bottom), Ops: types.NewCAS().OpsFor(n)}
	for i := 0; i < n; i++ {
		team := checker.TeamA
		if i >= a {
			team = checker.TeamB
		}
		w.Teams = append(w.Teams, team)
	}
	return w
}

// casInputs returns the n distinct values compare&swap's n-process
// alphabet proposes (the v of each cas(⊥, v)), so rc.CASConsensus's
// proposals stay inside its compiled table.
func casInputs(n int) []sim.Value {
	ops := types.NewCAS().OpsFor(n)
	out := make([]sim.Value, len(ops))
	for i, op := range ops {
		_, args, err := spec.ParseOp(op)
		if err != nil || len(args) != 2 {
			panic(fmt.Sprintf("mc: compare&swap alphabet op %q is not cas(old,new)", op))
		}
		out[i] = args[1]
	}
	return out
}

// distinctInputs returns n pairwise distinct proposal values.
func distinctInputs(n int) []sim.Value {
	out := make([]sim.Value, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%d", i)
	}
	return out
}

// targetBuilder constructs a named builtin target for n processes.
type targetBuilder struct {
	doc   string
	build func(n int) (Target, error)
}

// builtins indexes every protocol in internal/rc and internal/universal
// by the names used by `rcons -mc`, `rcserve /v1/mc` and the harness.
var builtins = map[string]targetBuilder{
	"cas": {
		doc: "CASConsensus baseline (independent crashes, natively recoverable)",
		build: func(n int) (Target, error) {
			return FromAlgorithm(rc.NewCASConsensus(n, "mc"), casInputs(n), sim.Independent)
		},
	},
	"team-sn": {
		doc: "TeamConsensus (Figure 2) over the S_n paper witness, independent crashes",
		build: func(n int) (Target, error) {
			tc, err := rc.NewTeamConsensus(compiledSpec(types.NewSn(n), n), snWitness(n), "mc")
			if err != nil {
				return Target{}, err
			}
			return FromAlgorithm(tc, tc.TeamInputs("vA", "vB"), sim.Independent)
		},
	},
	"team-cas": {
		doc: "TeamConsensus (Figure 2) over the CAS witness with |A|=1, independent crashes",
		build: func(n int) (Target, error) {
			tc, err := rc.NewTeamConsensus(compiledSpec(types.NewCAS(), n), casWitness(1, n), "mc")
			if err != nil {
				return Target{}, err
			}
			return FromAlgorithm(tc, tc.TeamInputs("vA", "vB"), sim.Independent)
		},
	},
	"tournament": {
		doc: "Tournament (Proposition 30) over the S_n witness, full RC, independent crashes",
		build: func(n int) (Target, error) {
			tr, err := rc.NewTournament(compiledSpec(types.NewSn(n), n), snWitness(n), n, "mc")
			if err != nil {
				return Target{}, err
			}
			return FromAlgorithm(tr, distinctInputs(n), sim.Independent)
		},
	},
	"simultaneous": {
		doc: "SimultaneousRC (Figure 4 / Theorem 1) under system-wide crashes",
		build: func(n int) (Target, error) {
			return FromAlgorithm(rc.NewSimultaneousRC(n, "mc"), distinctInputs(n), sim.Simultaneous)
		},
	},
	"universal": {
		doc:   "RUniversal (Figure 7): each process appends one register write; list verified",
		build: universalTarget,
	},
	"unsafe-noyield": {
		doc: "BROKEN TeamConsensus missing the line 19-20 yield (agreement violation expected)",
		build: func(n int) (Target, error) {
			tc, err := rc.NewTeamConsensus(compiledSpec(types.NewSn(n), n), snWitness(n), "mc")
			if err != nil {
				return Target{}, err
			}
			broken := rc.NewTeamConsensusVariant(tc, rc.VariantNoYield)
			t, err := FromAlgorithm(broken, broken.TeamInputs("vA", "vB"), sim.Independent)
			t.Name = "unsafe-noyield[" + t.Name + "]"
			return t, err
		},
	},
	"unsafe-yieldalways": {
		doc: "BROKEN TeamConsensus yielding regardless of |B| (agreement violation expected; n≥3)",
		build: func(n int) (Target, error) {
			if n < 3 {
				return Target{}, fmt.Errorf("mc: unsafe-yieldalways needs n ≥ 3 (|B| > 1), got %d", n)
			}
			tc, err := rc.NewTeamConsensus(compiledSpec(types.NewCAS(), n), casWitness(1, n), "mc")
			if err != nil {
				return Target{}, err
			}
			broken := rc.NewTeamConsensusVariant(tc, rc.VariantYieldAlways)
			t, err := FromAlgorithm(broken, broken.TeamInputs("vA", "vB"), sim.Independent)
			t.Name = "unsafe-yieldalways[" + t.Name + "]"
			return t, err
		},
	},
}

// universalTarget drives the recoverable universal construction: process
// i performs a single write(i) on a universally-constructed register.
// The checker validates the construction's linked list against the
// sequential specification (universal.VerifyList) — agreement/validity do
// not apply, the list IS the linearization.
//
// VerifyList is a QUIESCENT invariant, not a prefix invariant: mid-append
// a node's next pointer is already decided (the nextWinner cache is
// written in the Decide grant window) while the winner's seq/state/resp
// registers are written by later steps, so a prefix halted between those
// points legitimately shows a half-initialized node. The check therefore
// runs only once every process has decided — which every explored prefix
// reaches via its fair completion, and list corruption (double append,
// seq gap) is permanent in the append-only list, so nothing is missed.
func universalTarget(n int) (Target, error) {
	reg := &types.Register{Values: func() []string {
		vs := make([]string, n)
		for i := range vs {
			vs[i] = fmt.Sprintf("%d", i)
		}
		return vs
	}()}
	u := universal.New(n, compiledSpec(reg, n), spec.State(types.Bottom), "mc/u")
	return Target{
		Name:  "universal[register]",
		Model: sim.Independent,
		Factory: func() (*sim.Memory, []sim.Body, []sim.Value) {
			m := sim.NewMemory()
			u.Setup(m)
			bodies := make([]sim.Body, n)
			for i := range bodies {
				op := spec.FormatOp("write", fmt.Sprintf("%d", i))
				bodies[i] = func(p *sim.Proc) sim.Value {
					return sim.Value(u.Invoke(p, p.ID(), 0, op))
				}
			}
			return m, bodies, distinctInputs(n)
		},
		Check: func(_ []sim.Value, m *sim.Memory, out *sim.Outcome) error {
			for _, d := range out.Decided {
				if !d {
					return nil // mid-append prefix: list may be half-built
				}
			}
			return u.VerifyList(m)
		},
	}, nil
}

// Targets lists the builtin target names, sorted.
func Targets() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TargetDoc returns the one-line description of a builtin target
// ("" for unknown names).
func TargetDoc(name string) string { return builtins[name].doc }

// TargetByName builds the named builtin target for n processes.
func TargetByName(name string, n int) (Target, error) {
	b, ok := builtins[name]
	if !ok {
		return Target{}, fmt.Errorf("mc: unknown target %q (have %v)", name, Targets())
	}
	if n < 2 {
		return Target{}, fmt.Errorf("mc: target %q needs n ≥ 2, got %d", name, n)
	}
	return b.build(n)
}
