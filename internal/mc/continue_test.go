package mc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rcons/internal/sim"
)

// continuationTargets are the systems the continuation parity checks
// run on: every fuzz target, plus universal, whose bodies read the
// global step clock (sim.Proc.Now) and so depend on when they ran.
func continuationTargets(t testing.TB) []Target {
	uni, err := TargetByName("universal", 2)
	if err != nil {
		t.Fatal(err)
	}
	uni.ClockSensitive = true
	return append(append([]Target(nil), fuzzTargetList(t)...), uni)
}

// runState is everything the continuation parity checks compare
// between a continued and a fresh execution.
type runState struct {
	Decided     []bool
	Decisions   []sim.Value
	Crashes     []int
	Runs        []int
	Steps       int
	Schedule    []sim.Action
	EventHashes []uint64
	ClockHashes []uint64
	Digest      uint64
	Snapshot    string
	Trace       []sim.TraceEvent
	Err         string
}

// stateOf copies an execution's state. It must run before the execution
// takes another action: a pause's outcome is the runner's view, and
// memory is live.
func stateOf(out *sim.Outcome, m *sim.Memory, err error) runState {
	st := runState{
		Decided:     slices.Clone(out.Decided),
		Decisions:   slices.Clone(out.Decisions),
		Crashes:     slices.Clone(out.Crashes),
		Runs:        slices.Clone(out.Runs),
		Steps:       out.Steps,
		Schedule:    slices.Clone(out.Schedule),
		EventHashes: slices.Clone(out.EventHashes),
		ClockHashes: slices.Clone(out.ClockHashes),
		Trace:       slices.Clone(out.Trace),
		Digest:      m.Digest(),
		Snapshot:    m.Snapshot(),
	}
	if err != nil {
		st.Err = err.Error()
	}
	return st
}

// freshState is freshRun's state, memoized per (script, halt) when memo
// is non-nil.
func freshState(tgt Target, script []sim.Action, halt bool, memo map[string]runState) runState {
	key := sim.FormatScript(script)
	if !halt {
		key += " +fair"
	}
	if st, ok := memo[key]; ok {
		return st
	}
	_, m, out, err := freshRun(tgt, script, halt)
	st := stateOf(out, m, err)
	if memo != nil {
		memo[key] = st
	}
	return st
}

// checkContinuation runs script continued (continueScript) twice on one
// instance of tgt, and requires both runs to equal fresh runs on new
// instances. The first run is on the instance as Factory built it. The
// second is on the instance reset after it ran a different script to
// its end, as a search worker reuses its instance, on a pool of
// coroutines the different script's runner used first.
//
// prefixesChecked says every proper prefix of script has had its own
// checkContinuation. The first run's pauses before the last then repeat
// those checks with identical inputs (a new instance, a new runner, the
// same actions), so they are not compared again. The second run's
// pauses are all compared: each follows a different mirrored run.
func checkContinuation(t testing.TB, tgt Target, script []sim.Action, memo map[string]runState, prefixesChecked bool) {
	t.Helper()
	m, bodies, _ := tgt.Factory()
	m.Mark()
	from := 0
	if prefixesChecked {
		from = len(script)
	}
	continueScript(t, tgt, m, bodies, script, from, memo, "fresh instance", sim.NewRunner)

	m.Reset()
	pool := new(sim.Pool)
	defer pool.Close()
	// other mirrors script's processes behind an extra step of p1, so it
	// differs from script even when the mirror does not.
	other := []sim.Action{sim.Step(1)}
	for _, a := range script {
		if a.Kind != sim.ActCrashAll {
			a.Proc = 1 - a.Proc
		}
		other = append(other, a)
	}
	// Its outcome does not matter, only that it ran: it may be
	// inadmissible, and it may violate the target's checker.
	_, _ = pool.NewRunner(m, bodies, sim.Config{
		Model:              tgt.Model,
		Script:             other,
		FairCompletion:     true,
		DecideRequiresStep: true,
		MaxSteps:           Options{}.filled().MaxSteps,
	}).Run()
	m.Reset()
	continueScript(t, tgt, m, bodies, script, 0, memo, "reset instance", pool.NewRunner)
}

// continueScript starts script's empty prefix on the instance (m,
// bodies) with a runner from newRunner, extends it by script one action
// at a time, and requires every pause from the prefix of length from on
// (and any pause an Extend failed at) to equal a fresh HaltAtScriptEnd
// run of the same prefix. If every Extend succeeded, it then requires
// Run from the last pause to equal a fresh FairCompletion run of script.
// A pause's outcome is the runner's view, valid only until its next
// action, so each pause is copied (stateOf) before the runner acts
// again.
func continueScript(t testing.TB, tgt Target, m *sim.Memory, bodies []sim.Body, script []sim.Action, from int, memo map[string]runState,
	instance string, newRunner func(*sim.Memory, []sim.Body, sim.Config) *sim.Runner) {
	t.Helper()
	r := newRunner(m, bodies, sim.Config{
		Model:              tgt.Model,
		FairCompletion:     true,
		DecideRequiresStep: true,
		MaxSteps:           Options{}.filled().MaxSteps,
	})
	defer r.Close()
	r.RecordTrace()
	r.RecordDigests()
	r.RecordSchedule()

	compare := func(what string, got, want runState) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %s: %s of %s differs from a fresh run:\ncontinued: %+v\nfresh:     %+v",
				tgt.Name, instance, what, sim.FormatScript(script), got, want)
		}
	}

	out, err := r.Start()
	for i := 0; ; i++ {
		if i >= from || err != nil {
			compare("pause after "+sim.FormatScript(script[:i]), stateOf(out, m, err), freshState(tgt, script[:i], true, memo))
		}
		if err != nil {
			break
		}
		if i == len(script) {
			out, err = r.Run()
			compare("Run", stateOf(out, m, err), freshState(tgt, script, false, memo))
			break
		}
		out, err = r.Extend(script[i])
	}
}

// TestContinuedRunMatchesReplay is the soundness check for the search's
// continued executions and reused instances: on every continuation
// target, for every admissible script up to length 6, a run started at
// the empty prefix and extended one action at a time — on a new
// instance, and on one reset after a different execution — reaches
// exactly the outcome, trace, digests and memory of a fresh run of each
// prefix, and Run from any pause equals a fresh fair-completion run.
func TestContinuedRunMatchesReplay(t *testing.T) {
	const maxLen = 6
	for _, tgt := range continuationTargets(t) {
		t.Run(tgt.Name, func(t *testing.T) {
			alphabet := []sim.Action{sim.Step(0), sim.Step(1)}
			if tgt.Model == sim.Simultaneous {
				alphabet = append(alphabet, sim.CrashAll())
			} else {
				alphabet = append(alphabet, sim.Crash(0), sim.Crash(1))
			}
			memo := map[string]runState{}
			scripts := 0
			// walk checks script and, while it is admissible, shorter
			// than maxLen and leaves a process undecided, every
			// one-action extension. An inadmissible extension is checked
			// too: Extend must fail on it exactly as the fresh run does.
			var walk func(script []sim.Action)
			walk = func(script []sim.Action) {
				scripts++
				checkContinuation(t, tgt, script, memo, true)
				st := freshState(tgt, script, true, memo)
				if st.Err != "" || len(script) == maxLen || !slices.Contains(st.Decided, false) {
					return
				}
				for _, a := range alphabet {
					walk(append(slices.Clip(script), a))
				}
			}
			walk(nil)
			t.Logf("%d scripts", scripts)
		})
	}
}

// FuzzContinuationParity runs checkContinuation on random schedules of
// every continuation target. Inadmissible schedules are checked too: the
// continued run must fail at the same action, with the same error, as
// the fresh run.
func FuzzContinuationParity(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 6, 0, 3})
	f.Add(uint8(1), []byte{0, 0, 1, 7, 3, 3})
	f.Add(uint8(4), []byte{0, 6, 3, 0, 3, 0})
	f.Add(uint8(5), []byte{3, 0, 3, 0, 0, 3, 6, 0, 3})
	f.Fuzz(func(t *testing.T, tgtSel uint8, raw []byte) {
		tgts := continuationTargets(t)
		tgt := tgts[int(tgtSel)%len(tgts)]
		checkContinuation(t, tgt, decodeSchedule(raw, tgt.Model), nil, false)
	})
}

// TestWarmIDCacheKeepsDigests checks that a pool's id cache changes no
// digest: on every continuation target, an execution on a pool whose
// cache is warm from every other target records the same memory digest
// and event and clock hashes as the same execution on a new pool.
func TestWarmIDCacheKeepsDigests(t *testing.T) {
	tgts := continuationTargets(t)
	raw := []byte{0, 3, 6, 0, 3, 7, 0, 3}
	run := func(pool *sim.Pool, tgt Target) runState {
		m, bodies, _ := tgt.Factory()
		r := pool.NewRunner(m, bodies, sim.Config{
			Model:              tgt.Model,
			Script:             decodeSchedule(raw, tgt.Model),
			FairCompletion:     true,
			DecideRequiresStep: true,
			MaxSteps:           Options{}.filled().MaxSteps,
		})
		r.RecordDigests()
		out, err := r.Run()
		return stateOf(out, m, err)
	}
	for i, tgt := range tgts {
		warm := new(sim.Pool)
		for j, other := range tgts {
			if j != i {
				run(warm, other)
			}
		}
		got := run(warm, tgt)
		warm.Close()
		cold := new(sim.Pool)
		want := run(cold, tgt)
		cold.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: execution on a warm pool differs from one on a new pool:\nwarm: %+v\nnew:  %+v", tgt.Name, got, want)
		}
	}
}

// TestReplaysDeterministicAcrossWorkers checks the Replays count on a
// safe exhaustive search: equal at every worker count, like Nodes and
// Pruned, and below Nodes because first extensions and depth-bound
// completions continue their parent's execution.
func TestReplaysDeterministicAcrossWorkers(t *testing.T) {
	tgt := mustTarget(t, "team-sn", 2)
	var first *Result
	for _, workers := range []int{1, 2, 4} {
		res := check(t, tgt, Options{MaxDepth: 9, CrashBudget: 1, Workers: workers})
		if !res.Safe || !res.Exhaustive {
			t.Fatalf("workers=%d: team-sn not verified: safe=%v exhaustive=%v", workers, res.Safe, res.Exhaustive)
		}
		// The node counts the benchmark records for this check.
		if res.Stats.Nodes != 1966 || res.Stats.Pruned != 700 {
			t.Fatalf("workers=%d: nodes=%d pruned=%d, want 1966 and 700", workers, res.Stats.Nodes, res.Stats.Pruned)
		}
		if res.Stats.Replays <= 0 || res.Stats.Replays >= res.Stats.Nodes {
			t.Fatalf("workers=%d: replays=%d, want 0 < replays < nodes=%d", workers, res.Stats.Replays, res.Stats.Nodes)
		}
		if first == nil {
			first = res
		} else if res.Stats.Replays != first.Stats.Replays {
			t.Fatalf("replays depend on worker count: %d at 1 worker, %d at %d", first.Stats.Replays, res.Stats.Replays, workers)
		}
	}
	t.Logf("team-sn depth 9: %d nodes, %d replays", first.Stats.Nodes, first.Stats.Replays)
}

// TestCheckLeavesNoGoroutines checks that every way a search can end
// closes each paused execution it held, so no process coroutine
// outlives Check.
var errRejected = errors.New("prefix rejected with a live process")

func wantRejected(res *Result, err error) error {
	if err != nil || res.Safe || res.CE.Violation != errRejected.Error() {
		return fmt.Errorf("want the rejected prefix reported, got %+v, %v", res, err)
	}
	return nil
}

func TestCheckLeavesNoGoroutines(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		tgt    Target
		opts   Options
		cancel int // > 0: cancel the search from inside its cancel-th checker call
		// reject, when set, makes the checker reject every execution
		// whose schedule it matches while a process is undecided.
		reject func([]sim.Action) bool
		verify func(*Result, error) error
	}{
		{name: "safe", tgt: mustTarget(t, "team-sn", 2), opts: Options{MaxDepth: 9, CrashBudget: 1},
			verify: func(res *Result, err error) error {
				if err != nil || !res.Safe || !res.Exhaustive {
					return fmt.Errorf("want a safe exhaustive result, got %+v, %v", res, err)
				}
				return nil
			}},
		{name: "violation", tgt: mustTarget(t, "unsafe-noyield", 2), opts: Options{MaxDepth: 12, CrashBudget: 1},
			verify: func(res *Result, err error) error {
				if err != nil || res.Safe {
					return fmt.Errorf("want a violation, got %+v, %v", res, err)
				}
				return nil
			}},
		// The checker rejects a prefix while processes are still parked:
		// in root enumeration, in a worker's dfs on a run continued from
		// the parent, and on a fresh later sibling (a crash extension is
		// never a first child).
		{name: "violation-live-root", tgt: mustTarget(t, "team-sn", 2), opts: Options{MaxDepth: 9, CrashBudget: 1},
			reject: func(s []sim.Action) bool { return len(s) == 1 }, verify: wantRejected},
		{name: "violation-live-continued", tgt: mustTarget(t, "team-sn", 2), opts: Options{MaxDepth: 9, CrashBudget: 1},
			reject: func(s []sim.Action) bool { return len(s) == 4 }, verify: wantRejected},
		{name: "violation-live-sibling", tgt: mustTarget(t, "team-sn", 2), opts: Options{MaxDepth: 9, CrashBudget: 1},
			reject: func(s []sim.Action) bool { return len(s) == 4 && s[3].Kind == sim.ActCrash }, verify: wantRejected},
		{name: "node-budget", tgt: mustTarget(t, "team-sn", 2),
			opts: Options{MaxDepth: 10, CrashBudget: 1, NodeBudget: 300, SwarmSchedules: 64},
			verify: func(res *Result, err error) error {
				if err != nil || res.Exhaustive || res.Stats.SwarmRuns == 0 {
					return fmt.Errorf("want a swarm fallback, got %+v, %v", res, err)
				}
				return nil
			}},
		{name: "cancelled", tgt: mustTarget(t, "team-sn", 2), opts: Options{MaxDepth: 9, CrashBudget: 1},
			cancel: 500,
			verify: func(_ *Result, err error) error {
				if !errors.Is(err, context.Canceled) {
					return fmt.Errorf("want context.Canceled, got %v", err)
				}
				return nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := ctx
			tgt := tc.tgt
			if tc.cancel > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
				var calls atomic.Int64
				check := tgt.Check
				tgt.Check = func(inputs []sim.Value, m *sim.Memory, out *sim.Outcome) error {
					if calls.Add(1) == int64(tc.cancel) {
						cancel()
					}
					return check(inputs, m, out)
				}
			}
			if tc.reject != nil {
				check := tgt.Check
				tgt.Check = func(inputs []sim.Value, m *sim.Memory, out *sim.Outcome) error {
					if tc.reject(out.Schedule) && slices.Contains(out.Decided, false) {
						return errRejected
					}
					return check(inputs, m, out)
				}
			}
			tc.opts.Workers = 2
			before := settledGoroutines()
			res, err := Check(ctx, tgt, tc.opts)
			if verr := tc.verify(res, err); verr != nil {
				t.Fatal(verr)
			}
			if after := goroutinesReach(before); after != before {
				t.Fatalf("goroutines: %d before Check, %d after", before, after)
			}
		})
	}
}

// A goroutine that has signalled its exit to a WaitGroup may not have
// exited yet when the waiter returns, so goroutine counts around a
// call are polled rather than read once. settleFor is how long the
// count must hold still to count as settled; settleDeadline bounds
// every poll.
const (
	settleFor      = 50 * time.Millisecond
	settleDeadline = 5 * time.Second
)

// settledGoroutines returns runtime.NumGoroutine once it has held still
// for settleFor, or its last reading at settleDeadline.
func settledGoroutines() int {
	deadline := time.Now().Add(settleDeadline)
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < settleFor && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// goroutinesReach polls runtime.NumGoroutine until it equals want and
// returns it, or returns the last reading at settleDeadline.
func goroutinesReach(want int) int {
	deadline := time.Now().Add(settleDeadline)
	n := runtime.NumGoroutine()
	for n != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
