package harness

import (
	"context"
	"fmt"
	"strconv"

	"rcons/internal/mc"
	"rcons/internal/rc"
	"rcons/internal/sim"
)

// Motivation (E11) makes the paper's opening question — *when* is
// recoverable consensus harder than consensus? — executable. It model-
// checks two classical consensus algorithms with and without crash
// recovery:
//
//   - Herlihy's test&set consensus (cons(test&set) = 2) is exhaustively
//     safe under halting failures (crash budget 0) but violates
//     agreement once a single crash-recovery is allowed: test&set's
//     state does not record the winner, so a crashed winner cannot
//     recover its response. Test&set is 2-discerning but not
//     2-recording.
//   - Compare&swap consensus is exhaustively safe in BOTH regimes: a
//     CAS object's state does record the winner. CAS is n-recording for
//     every n.
//
// The pattern "discerning but not recording ⇒ breaks under recovery" is
// the paper's characterization in miniature. Each row is one exhaustive
// internal/mc run; the nodes column is its search effort.
func Motivation(opts Options) (*Report, error) {
	opts = opts.filled()
	r := &Report{
		ID: "E11", Artifact: "§1 motivation", Title: "consensus vs recoverable consensus, executably",
		Header: []string{"algorithm", "crash budget", "depth", "nodes", "verdict", "expected"},
		Pass:   true,
	}
	// Figure 4 with a NON-recoverable sub-consensus (test&set): safe under
	// simultaneous crashes (Theorem 1's Round guard ensures single access
	// per instance) but broken under independent crashes.
	fig4tas := func() rc.Algorithm {
		alg := rc.NewSimultaneousRC(2, "e11f")
		alg.Sub = rc.TASInstance{}
		return alg
	}

	cases := []struct {
		name         string
		alg          rc.Algorithm
		budget       int
		depth        int
		simultaneous bool
		wantBug      bool
	}{
		{"test&set consensus", rc.NewTASConsensus("e11t"), 0, 8, false, false},
		{"test&set consensus", rc.NewTASConsensus("e11t"), 1, 9, false, true},
		{"cas consensus", rc.NewCASConsensus(2, "e11c"), 0, 8, false, false},
		{"cas consensus", rc.NewCASConsensus(2, "e11c"), 1, 8, false, false},
		{"figure-4[tas] (simultaneous)", fig4tas(), 1, 9, true, false},
		// Open-question probe (paper Discussion, §5): test&set is
		// 2-discerning but NOT 2-recording, and whether 2-recording is
		// necessary for 2-process RC is open. If Figure 4 over test&set
		// solved independent-crash RC, that would answer it negatively.
		// Bounded exploration finds no violation — consistent with (but
		// of course not proving) rcons(test&set) = 2.
		{"figure-4[tas] (independent, open-question probe)", fig4tas(), 1, 10, false, false},
	}
	for _, c := range cases {
		model := sim.Independent
		if c.simultaneous {
			model = sim.Simultaneous
		}
		tgt, err := mc.FromAlgorithm(c.alg, []sim.Value{"x", "y"}, model)
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
		verdict, expected := "safe", "safe"
		if foundBug {
			verdict = "violation found"
		}
		if c.wantBug {
			expected = "violation found"
		}
		// Safe rows claim the whole bounded space, so they additionally
		// require an exhaustive search.
		if foundBug != c.wantBug || !(res.Exhaustive || c.wantBug) {
			r.Pass = false
			r.Notes = append(r.Notes, fmt.Sprintf("%s budget=%d: verdict %q (exhaustive=%v), expected %q",
				c.name, c.budget, verdict, res.Exhaustive, expected))
		}
		r.Rows = append(r.Rows, []string{
			c.name, strconv.Itoa(c.budget), strconv.Itoa(c.depth),
			strconv.Itoa(res.Stats.Nodes), verdict, expected,
		})
	}
	r.Notes = append(r.Notes,
		"test&set: 2-discerning but not 2-recording → standard consensus works, recovery breaks it;",
		"compare&swap: n-recording for every n → consensus power survives crashes intact;",
		"figure-4[tas]: Theorem 1's Round guard makes even a NON-recoverable sub-consensus",
		"compose safely under simultaneous crashes; the independent-crash row probes the paper's",
		"OPEN question (§5: is 2-recording necessary for 2-process RC?) — bounded exploration",
		"finds no violation, consistent with rcons(test&set) = 2 but proving nothing")
	return r, nil
}
