package mc

import (
	"context"
	"testing"
)

// BenchmarkCheckSafe runs one round of the three exhaustive safe checks
// rcperf's mc-safe workload repeats, at its depth and crash budgets and
// default workers. Each check must keep its recorded node and replay
// counts: a faster round that explores a different search is not
// comparable.
func BenchmarkCheckSafe(b *testing.B) {
	checks := []struct {
		name           string
		depth, crashes int
		nodes, replays int
	}{
		{"team-sn", 9, 1, 1966, 1153},
		{"team-cas", 9, 1, 1956, 1146},
		{"cas", 12, 2, 4340, 2462},
	}
	tgts := make([]Target, len(checks))
	for i, c := range checks {
		tgt, err := TargetByName(c.name, 2)
		if err != nil {
			b.Fatal(err)
		}
		tgts[i] = tgt
	}
	for b.Loop() {
		for i, c := range checks {
			res, err := Check(context.Background(), tgts[i], Options{MaxDepth: c.depth, CrashBudget: c.crashes})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Safe || !res.Exhaustive || res.Stats.Nodes != c.nodes || res.Stats.Replays != c.replays {
				b.Fatalf("%s: safe=%v exhaustive=%v nodes=%d replays=%d, want a safe exhaustive check with %d nodes and %d replays",
					c.name, res.Safe, res.Exhaustive, res.Stats.Nodes, res.Stats.Replays, c.nodes, c.replays)
			}
		}
	}
}
