package harness

import (
	"context"
	"fmt"
	"strconv"

	"rcons/internal/checker"
	"rcons/internal/mc"
	"rcons/internal/rc"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// ModelCheck (E10) goes beyond the paper's figures: it *exhaustively*
// verifies the Figure 2 algorithm on small instances — every
// interleaving and every crash placement within the bounds — and, as a
// sensitivity check, confirms the checker rediscovers the agreement
// violations of both §3.1 counterexamples when the corresponding guard
// is removed. Random schedules (E2) sample the adversary; this
// experiment enumerates it.
//
// The enumeration runs on internal/mc — configuration-fingerprint
// pruning (incremental interned digests) plus parallel root
// partitioning. mc's TestPruningSoundness cross-validates the pruning
// against a pruning-free sequential enumeration kept in its tests, so
// the verdict is the one full enumeration would give, orders of
// magnitude cheaper.
func ModelCheck(opts Options) (*Report, error) {
	opts = opts.filled()
	r := &Report{
		ID: "E10", Artifact: "§3.1 / Theorem 8", Title: "bounded exhaustive model checking of Figure 2",
		Header: []string{"instance", "variant", "depth", "crashes", "nodes", "pruned", "completions", "verdict", "expected"},
		Pass:   true,
	}

	type instance struct {
		name    string
		typ     spec.Type
		witness checker.Witness
		variant rc.Variant
		depth   int
		budget  int
		wantBug bool
	}
	cas3 := checker.Witness{
		Q0:    spec.State(types.Bottom),
		Teams: []int{checker.TeamA, checker.TeamB, checker.TeamB},
		Ops:   []spec.Op{"cas(_,a)", "cas(_,b)", "cas(_,c)"},
	}
	cases := []instance{
		{"S_2 paper witness", types.NewSn(2), SnPaperWitness(2), rc.VariantPaper, 10, 1, false},
		{"S_3 paper witness", types.NewSn(3), SnPaperWitness(3), rc.VariantPaper, 7, 1, false},
		{"CAS |A|=1,|B|=2", types.NewCAS(), cas3, rc.VariantPaper, 7, 1, false},
		{"S_2 paper witness", types.NewSn(2), SnPaperWitness(2), rc.VariantNoYield, 10, 1, true},
		{"CAS |A|=1,|B|=2", types.NewCAS(), cas3, rc.VariantYieldAlways, 9, 0, true},
	}

	for _, c := range cases {
		tc, err := rc.NewTeamConsensus(c.typ, c.witness, "e10")
		if err != nil {
			return nil, err
		}
		alg := rc.NewTeamConsensusVariant(tc, c.variant)
		tgt, err := mc.FromAlgorithm(alg, alg.TeamInputs("vA", "vB"), sim.Independent)
		if err != nil {
			return nil, err
		}
		res, err := mc.Check(context.Background(), tgt, mc.Options{
			MaxDepth:    c.depth,
			CrashBudget: c.budget,
			Workers:     opts.Workers,
		})
		if err != nil {
			return nil, err
		}
		foundBug := !res.Safe
		verdict := "safe"
		if foundBug {
			verdict = "violation found"
		}
		expected := "safe"
		if c.wantBug {
			expected = "violation found"
		}
		// Safe rows claim the WHOLE bounded space, so they additionally
		// require exhaustive coverage; a violation is a violation no
		// matter which search mode surfaced it.
		ok := foundBug == c.wantBug && (res.Exhaustive || c.wantBug)
		if !res.Exhaustive {
			r.Notes = append(r.Notes, fmt.Sprintf("%s/%s: search fell back to swarm (nodes=%d)",
				c.name, variantName(c.variant), res.Stats.Nodes))
		}
		if !ok {
			r.Pass = false
			reason := fmt.Sprintf("verdict %q, expected %q", verdict, expected)
			if foundBug == c.wantBug {
				reason = "verdict correct but the search was not exhaustive"
			}
			r.Notes = append(r.Notes, fmt.Sprintf("%s/%s: %s", c.name, variantName(c.variant), reason))
		}
		if res.CE != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("%s/%s counterexample: %s",
				c.name, variantName(c.variant), sim.FormatScript(res.CE.Schedule)))
		}
		r.Rows = append(r.Rows, []string{
			c.name, variantName(c.variant), strconv.Itoa(c.depth), strconv.Itoa(c.budget),
			strconv.Itoa(res.Stats.Nodes), strconv.Itoa(res.Stats.Pruned),
			strconv.Itoa(res.Stats.Completions), verdict, expected,
		})
	}
	r.Notes = append(r.Notes,
		"paper-variant rows must be safe over the WHOLE bounded schedule space;",
		"broken-variant rows must yield a violation — the checker rediscovers the §3.1 schedules")
	return r, nil
}

func variantName(v rc.Variant) string {
	switch v {
	case rc.VariantNoYield:
		return "no-yield (broken)"
	case rc.VariantYieldAlways:
		return "yield-always (broken)"
	default:
		return "paper"
	}
}
