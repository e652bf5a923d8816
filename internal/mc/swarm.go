package mc

import (
	"context"

	"rcons/internal/ordered"
	"rcons/internal/sim"
)

// swarm is the randomized fallback for state spaces whose exhaustive
// frontier exceeds the node budget: a fleet of Options.SwarmSchedules
// executions, each driven by the seeded random scheduler with crash
// injection (seed = SwarmSeed + index, so the whole fleet is
// deterministic and any violation it reports is reproducible). Schedules
// are recorded, so a violating run yields a replayable script exactly
// like the exhaustive search. The schedules are the items of an
// ordered.Run, so the first violation in seed order wins, independent
// of worker count.
func (s *search) swarm(ctx context.Context) (*violation, error) {
	run := ordered.New[*violation](ctx)
	advance := func(i int) bool { return i < s.opts.SwarmSchedules }
	fanOut(min(s.opts.Workers, s.opts.SwarmSchedules), func(w *worker) {
		for {
			i, ok := run.Claim(advance)
			if !ok {
				return
			}
			v := s.swarmOne(w, int64(i))
			s.swarmRuns.Add(1)
			if v != nil {
				run.Finish(i, v, nil)
			}
		}
	})
	return run.Result()
}

// swarmOne executes one randomized schedule on w's target instance and
// returns its violation, if any.
func (s *search) swarmOne(w *worker, idx int64) *violation {
	m, bodies, _ := w.instance(s.tgt)
	cfg := sim.Config{
		Seed:               s.opts.SwarmSeed + idx,
		Model:              s.tgt.Model,
		CrashProb:          s.opts.SwarmCrashProb,
		MaxCrashes:         s.opts.CrashBudget,
		DecideRequiresStep: true,
		MaxSteps:           s.opts.MaxSteps,
	}
	r := w.pool.NewRunner(m, bodies, cfg)
	r.RecordSchedule()
	out, err := r.Run()
	return s.violation(w, out, err)
}
