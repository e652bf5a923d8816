package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rcons/internal/mc"
	"rcons/internal/sim"
)

// mcTarget is one safe builtin protocol of mc-safe, checked at n = 2
// with rcbench's depth and crash budgets, and the exact node count a
// safe exhaustive check of it executes.
type mcTarget struct {
	name           string
	depth, crashes int
	nodes          int
}

var mcTargets = []mcTarget{
	{name: "team-sn", depth: 9, crashes: 1, nodes: 1966},
	{name: "team-cas", depth: 9, crashes: 1, nodes: 1956},
	{name: "cas", depth: 12, crashes: 2, nodes: 4340},
}

// checkTarget model-checks one target; a verdict other than safe and
// exhaustive at the recorded node count is a failed check.
func checkTarget(ctx context.Context, e *env, tg mcTarget) (*mc.Result, time.Duration, error) {
	tgt, err := mc.TargetByName(tg.name, 2)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := mc.Check(ctx, tgt, mc.Options{MaxDepth: tg.depth, CrashBudget: tg.crashes})
	d := time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		e.tally.fail("mc %s: %v", tg.name, err)
		return nil, d, nil
	}
	switch {
	case !res.Safe || !res.Exhaustive:
		e.tally.fail("mc %s: safe=%v exhaustive=%v, want both", tg.name, res.Safe, res.Exhaustive)
	case res.Stats.Nodes != tg.nodes:
		e.tally.fail("mc %s: %d nodes, recorded %d: the search changed shape", tg.name, res.Stats.Nodes, tg.nodes)
	default:
		e.tally.pass()
	}
	return res, d, nil
}

// mcSafe: repeated exhaustive checks of the safe targets.
func mcSafe(ctx context.Context, e *env) (metricSet, error) {
	var setups []float64
	for range e.cfg.size.setupReps {
		t0 := time.Now()
		for _, tg := range mcTargets {
			if _, _, err := checkTarget(ctx, e, tg); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	var lat, rates []float64
	var measured time.Duration
	heap := startHeapSampler()
	for measured < e.cfg.seconds || len(rates) < 3 {
		var nodes int
		var round time.Duration
		for _, i := range rng.Perm(len(mcTargets)) {
			res, d, err := checkTarget(ctx, e, mcTargets[i])
			if err != nil {
				heap.finish()
				return nil, err
			}
			if res != nil {
				nodes += res.Stats.Nodes
			}
			lat = append(lat, ms(d))
			round += d
		}
		measured += round
		rates = append(rates, float64(nodes)/round.Seconds())
	}
	peak := heap.finish()
	m := metricSet{}
	m.set("setup_s", setupMedian(e, setups), "s")
	m.set("ops_per_s", float64(len(lat))/measured.Seconds(), "1/s")
	m.set("work_per_s", median(rates), "1/s")
	q := latencySummary(m, lat)
	m.set("peak_heap_mb", peak, "MB")
	fmt.Fprintf(e.log, "rcperf: mc-safe checks=%d rounds=%d tail=p%g\n", len(lat), len(rates), q*100)
	return m, nil
}

// mcLayers checks each target once and runs seeded full executions of
// each through the simulator.
func mcLayers(ctx context.Context, e *env, m metricSet) error {
	var execs []float64
	for _, tg := range mcTargets {
		res, d, err := checkTarget(ctx, e, tg)
		if err != nil {
			return err
		}
		if res != nil {
			m.set("mc."+tg.name+".nodes", float64(res.Stats.Nodes), "count")
			m.set("mc."+tg.name+".pruned_ratio",
				float64(res.Stats.Pruned)/float64(max(1, res.Stats.Nodes+res.Stats.Pruned)), "ratio")
			m.set("mc."+tg.name+".check_ms", ms(d), "ms")
		}
		tgt, err := mc.TargetByName(tg.name, 2)
		if err != nil {
			return err
		}
		for k := range e.cfg.size.simExecs {
			mem, bodies, inputs := tgt.Factory()
			r := sim.NewRunner(mem, bodies, sim.Config{
				Seed:               e.cfg.seed*100_003 + int64(k),
				Model:              tgt.Model,
				CrashProb:          0.25,
				MaxCrashes:         tg.crashes,
				DecideRequiresStep: true,
				MaxSteps:           20_000,
			})
			t0 := time.Now()
			out, err := r.Run()
			execs = append(execs, us(time.Since(t0)))
			if err == nil {
				err = tgt.Check(inputs, mem, out)
			}
			e.tally.judge(fmt.Sprintf("sim %s execution %d", tg.name, k), err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	m.set("sim.exec.p50_us", median(execs), "us")
	return nil
}
