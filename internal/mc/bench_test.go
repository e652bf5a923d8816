package mc

import (
	"context"
	"fmt"
	"testing"
)

// safeChecks are the three exhaustive safe checks rcperf's mc-safe
// workload repeats, at its depth and crash budgets, with the node and
// replay counts each must keep: a faster round that explores a
// different search is not comparable.
var safeChecks = []struct {
	name           string
	depth, crashes int
	nodes, replays int
}{
	{"team-sn", 9, 1, 1966, 1153},
	{"team-cas", 9, 1, 1956, 1146},
	{"cas", 12, 2, 4340, 2462},
}

// safeRound returns one round of safeChecks at the given worker count
// (0: the default), which fails unless every check is safe, exhaustive
// and at its recorded counts.
func safeRound(tb testing.TB, workers int) func() error {
	tgts := make([]Target, len(safeChecks))
	for i, c := range safeChecks {
		tgt, err := TargetByName(c.name, 2)
		if err != nil {
			tb.Fatal(err)
		}
		tgts[i] = tgt
	}
	return func() error {
		for i, c := range safeChecks {
			res, err := Check(context.Background(), tgts[i], Options{MaxDepth: c.depth, CrashBudget: c.crashes, Workers: workers})
			if err != nil {
				return err
			}
			if !res.Safe || !res.Exhaustive || res.Stats.Nodes != c.nodes || res.Stats.Replays != c.replays {
				return fmt.Errorf("%s: safe=%v exhaustive=%v nodes=%d replays=%d, want a safe exhaustive check with %d nodes and %d replays",
					c.name, res.Safe, res.Exhaustive, res.Stats.Nodes, res.Stats.Replays, c.nodes, c.replays)
			}
		}
		return nil
	}
}

// BenchmarkCheckSafe runs one round of safeChecks at default workers.
func BenchmarkCheckSafe(b *testing.B) {
	round := safeRound(b, 0)
	for b.Loop() {
		if err := round(); err != nil {
			b.Fatal(err)
		}
	}
}
