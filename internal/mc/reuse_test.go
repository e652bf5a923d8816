package mc

import (
	"slices"
	"testing"

	"rcons/internal/sim"
)

// checkAllocsCeiling bounds the allocations of one warm round of
// safeChecks at two workers. A round allocated about 149.5k times when
// every node built its own runner, outcome and scripts, and about 8.7k
// once a worker reuses them; the ceiling leaves headroom above that for
// other Go versions and schedulings.
const checkAllocsCeiling = 15_000

// TestCheckAllocs checks that a search node allocates nothing in the
// steady state: one warm round of safeChecks stays under
// checkAllocsCeiling. What is left is per check, round and root (worker
// pools, roots, visited sets) and per fair completion (Run's snapshot).
func TestCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	round := safeRound(t, 2)
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		if e := round(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > checkAllocsCeiling {
		t.Fatalf("one round of the mc-safe checks allocated %.0f times, want at most %d", allocs, checkAllocsCeiling)
	}
	t.Logf("one round of the mc-safe checks: %.0f allocations", allocs)
}

// TestViolationKeepsSchedule checks that a violation keeps a schedule
// of its own: the worker's runner reuses its schedule buffer for every
// later execution, and those must not change a violation found earlier.
func TestViolationKeepsSchedule(t *testing.T) {
	tgt := mustTarget(t, "unsafe-noyield", 2)
	res := check(t, tgt, Options{MaxDepth: 12, CrashBudget: 1, Workers: 1})
	if res.Safe {
		t.Fatal("unsafe-noyield verified safe")
	}
	s := &search{tgt: tgt, opts: Options{}.filled()}
	w := new(worker)
	defer w.pool.Close()
	never := func() error { return nil }
	_, v, err := s.visit(never, w, res.CE.Schedule, false)
	if err != nil || v == nil {
		t.Fatalf("the counterexample %s does not violate: %v, %v", sim.FormatScript(res.CE.Schedule), v, err)
	}
	want := slices.Clone(v.schedule)
	// Later executions write other actions over the same positions: runs
	// of one process only, and the counterexample with its processes
	// swapped, each finished by its fair completion when it pauses.
	others := [][]sim.Action{
		slices.Repeat([]sim.Action{sim.Step(0)}, len(want)),
		slices.Repeat([]sim.Action{sim.Step(1)}, len(want)),
	}
	var mirror []sim.Action
	for _, a := range want {
		if a.Kind != sim.ActCrashAll {
			a.Proc = 1 - a.Proc
		}
		mirror = append(mirror, a)
	}
	others = append(others, mirror)
	for _, script := range others {
		if out, v, _ := s.visit(never, w, script, false); out != nil && v == nil {
			_, _ = w.r.Run()
		}
	}
	if !slices.Equal(v.schedule, want) {
		t.Fatalf("the violation's schedule changed from %s to %s after later executions on its worker",
			sim.FormatScript(want), sim.FormatScript(v.schedule))
	}
}
