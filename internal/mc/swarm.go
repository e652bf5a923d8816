package mc

import (
	"context"
	"sync"

	"rcons/internal/sim"
)

// swarm is the randomized fallback for state spaces whose exhaustive
// frontier exceeds the node budget: a fleet of Options.SwarmSchedules
// executions, each driven by the seeded random scheduler with crash
// injection (seed = SwarmSeed + index, so the whole fleet is
// deterministic and any violation it reports is reproducible). Schedules
// are recorded, so a violating run yields a replayable script exactly
// like the exhaustive search. The first violation in seed order wins,
// independent of worker count.
func (s *search) swarm(ctx context.Context) (*violation, error) {
	var (
		mu      sync.Mutex
		next    int
		bestIdx = s.opts.SwarmSchedules
		best    *violation
	)
	var wg sync.WaitGroup
	for range min(s.opts.Workers, s.opts.SwarmSchedules) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := new(sim.Pool)
			defer pool.Close()
			for {
				mu.Lock()
				i := next
				next++
				if i >= s.opts.SwarmSchedules || i >= bestIdx {
					mu.Unlock()
					return
				}
				mu.Unlock()
				if ctx.Err() != nil {
					return
				}

				v := s.swarmOne(pool, int64(i))
				s.swarmRuns.Add(1)

				if v != nil {
					mu.Lock()
					if i < bestIdx {
						bestIdx, best = i, v
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return best, nil
}

// swarmOne executes one randomized schedule on coroutines from pool and
// returns its violation, if any.
func (s *search) swarmOne(pool *sim.Pool, idx int64) *violation {
	m, bodies, inputs := s.tgt.Factory()
	cfg := sim.Config{
		Seed:               s.opts.SwarmSeed + idx,
		Model:              s.tgt.Model,
		CrashProb:          s.opts.SwarmCrashProb,
		MaxCrashes:         s.opts.CrashBudget,
		DecideRequiresStep: true,
		MaxSteps:           s.opts.MaxSteps,
	}
	r := pool.NewRunner(m, bodies, cfg)
	r.RecordSchedule()
	out, err := r.Run()
	if err != nil {
		return &violation{schedule: out.Schedule, err: err}
	}
	if cerr := s.tgt.Check(inputs, m, out); cerr != nil {
		return &violation{schedule: out.Schedule, err: cerr}
	}
	return nil
}
