package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCrashAllRecoveryDecisionsAreTraced is the regression test for
// decisions reached while recovering from a simultaneous crash: they
// must enter the trace (and so the digest event positions) like any
// other decision.
func TestCrashAllRecoveryDecisionsAreTraced(t *testing.T) {
	body := func(p *Proc) Value {
		if p.RunNumber() > 1 {
			return "recovered" // decides without a step
		}
		return p.Read("R")
	}
	r := NewRunner(newTestMemory(), []Body{body, body}, Config{
		Model:  Simultaneous,
		Script: []Action{CrashAll()},
	})
	r.RecordTrace()
	out, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	var decides []TraceEvent
	for _, e := range out.Trace {
		if e.Kind == TraceDecide {
			decides = append(decides, e)
		}
	}
	want := []TraceEvent{
		{Kind: TraceDecide, Proc: 0, Detail: "recovered"},
		{Kind: TraceDecide, Proc: 1, Detail: "recovered"},
	}
	if !reflect.DeepEqual(decides, want) {
		t.Fatalf("decide events = %v, want %v; trace:\n%s", decides, want, FormatTrace(out.Trace))
	}
	if !out.Decided[0] || !out.Decided[1] {
		t.Fatalf("decided = %v", out.Decided)
	}
}

// TestScriptedRunDeterministicWithAllocatingPreludes checks that the
// stretch of each body before its first scheduling point runs in process
// order: allocation names, and so decisions, are a pure function of the
// script.
func TestScriptedRunDeterministicWithAllocatingPreludes(t *testing.T) {
	body := func(p *Proc) Value {
		name := p.AllocRegister("n", None)
		p.Write(name, "x")
		return name
	}
	cfg := Config{Script: []Action{Step(2), Step(0), Step(1)}, HaltAtScriptEnd: true}
	var first []Value
	for i := 0; i < 2000; i++ {
		out, err := NewRunner(NewMemory(), []Body{body, body, body}, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out.Decisions
			if want := []Value{"n#1", "n#2", "n#3"}; !reflect.DeepEqual(first, want) {
				t.Fatalf("decisions = %v, want %v", first, want)
			}
			continue
		}
		if !reflect.DeepEqual(out.Decisions, first) {
			t.Fatalf("run %d: decisions %v, first run %v", i, out.Decisions, first)
		}
	}
}

// teardownCase is one way an execution can end: the bodies, the
// config, and how the runner is driven (nil: Run).
type teardownCase struct {
	name    string
	bodies  []Body
	cfg     Config
	drive   func(*Runner) (*Outcome, error) // nil: Run
	wantErr error                           // nil: the execution must succeed
	errText string                          // substring of the error, when wantErr is nil but an error is expected
}

// teardownCases covers every exit path of an execution: Run on its own,
// and the paused path (Start, Extend, then Run or Close).
func teardownCases() []teardownCase {
	reader := func(p *Proc) Value { p.Read("R"); return p.Read("R") }
	spin := func(p *Proc) Value {
		for {
			p.Read("R")
		}
	}
	boom := func(p *Proc) Value {
		p.Read("R")
		panic("boom")
	}
	// paused starts the runner and extends it by act. A failed Start is
	// reported without wrapping, so it never passes for the error the
	// case expects of Extend.
	paused := func(act Action) func(*Runner) (*Outcome, error) {
		return func(r *Runner) (*Outcome, error) {
			if _, err := r.Start(); err != nil {
				return nil, fmt.Errorf("Start: %v", err)
			}
			return r.Extend(act)
		}
	}
	return []teardownCase{
		{name: "all-decided", bodies: []Body{reader, reader}, cfg: Config{Seed: 1}},
		{name: "random-crashes", bodies: []Body{reader, reader}, cfg: Config{Seed: 3, CrashProb: 0.5, MaxCrashes: 2}},
		{name: "halt-at-script-end", bodies: []Body{reader, reader},
			cfg: Config{Script: []Action{Step(0)}, HaltAtScriptEnd: true}},
		{name: "script-error", bodies: []Body{reader, reader},
			cfg: Config{Script: []Action{Step(5)}}, wantErr: ErrScript},
		{name: "step-budget", bodies: []Body{spin, spin},
			cfg: Config{Seed: 1, MaxSteps: 10}, wantErr: ErrStepBudget},
		{name: "run-budget", bodies: []Body{spin, reader},
			cfg: Config{Seed: 1, MaxStepsPerRun: 10}, wantErr: ErrRunBudget},
		{name: "body-panic", bodies: []Body{boom, reader},
			cfg: Config{Script: []Action{Step(1), Step(0)}}, errText: "process 0 panicked: boom"},
		{name: "start-close", bodies: []Body{reader, reader},
			cfg: Config{Script: []Action{Step(0)}},
			drive: func(r *Runner) (*Outcome, error) {
				out, err := r.Start()
				r.Close()
				return out, err
			}},
		{name: "start-extend-run", bodies: []Body{reader, reader},
			cfg: Config{Script: []Action{Step(0)}, FairCompletion: true},
			drive: func(r *Runner) (*Outcome, error) {
				if _, err := paused(Step(1))(r); err != nil {
					return nil, err
				}
				return r.Run()
			}},
		{name: "extend-script-error", bodies: []Body{reader, reader},
			drive: paused(Step(5)), wantErr: ErrScript},
		{name: "extend-step-budget", bodies: []Body{spin, spin},
			cfg:   Config{Script: []Action{Step(0)}, MaxSteps: 2},
			drive: paused(Step(1)), wantErr: ErrStepBudget},
	}
}

// run builds the case's runner with newRunner and drives it.
func (tc teardownCase) run(newRunner func(*Memory, []Body, Config) *Runner, record bool) (*Outcome, error) {
	r := newRunner(newTestMemory(), tc.bodies, tc.cfg)
	if record {
		r.RecordTrace()
		r.RecordSchedule()
		r.RecordDigests()
	}
	return tc.execute(r)
}

// execute drives r as the case says.
func (tc teardownCase) execute(r *Runner) (*Outcome, error) {
	if tc.drive == nil {
		return r.Run()
	}
	return tc.drive(r)
}

// settledGoroutines reads the goroutine count once it has held still
// for settleFor (or settleDeadline has passed), so a goroutine an
// earlier test left ending is not counted in the starting count. The
// counts after an execution are read once: a coroutine that is still
// running when Run or Close returns is a leak.
const (
	settleFor      = 20 * time.Millisecond
	settleDeadline = 5 * time.Second
)

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

// TestRunLeavesNoGoroutines checks that every exit path of an execution
// unwinds all process coroutines before returning: Run on its own, and
// the paused path (Start, Extend, then Run or Close).
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, tc := range teardownCases() {
		t.Run(tc.name, func(t *testing.T) {
			before := settledGoroutines()
			_, err := tc.run(NewRunner, false)
			switch {
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case tc.errText != "":
				if err == nil || !strings.Contains(err.Error(), tc.errText) {
					t.Fatalf("err = %v, want one containing %q", err, tc.errText)
				}
			case err != nil:
				t.Fatal(err)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Fatalf("goroutines: %d before the execution, %d after", before, after)
			}
		})
	}
}

// TestPooledRunsMatchFreshRuns runs every teardown case back to back on
// one Pool, twice over, so each case runs on coroutines that earlier
// executions left idle after a decision, a stop, a budget failure or a
// body panic. Each outcome and error must equal the same case on a
// runner of its own. The pool may hold only the coroutines one
// execution needs, and Close must end all of them.
func TestPooledRunsMatchFreshRuns(t *testing.T) {
	cases := teardownCases()
	most := 0
	for _, tc := range cases {
		most = max(most, len(tc.bodies))
	}
	base := settledGoroutines()
	pool := new(Pool)
	for round := range 2 {
		for _, tc := range cases {
			want, wantErr := tc.run(NewRunner, true)
			got, gotErr := tc.run(pool.NewRunner, true)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("round %d, %s: pooled err %v, fresh err %v", round, tc.name, gotErr, wantErr)
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("round %d, %s: pooled outcome %v, fresh outcome %v", round, tc.name, got, want)
			}
			if got != nil && !reflect.DeepEqual(*got, *want) {
				t.Fatalf("round %d, %s: pooled outcome\n%+v\nfresh outcome\n%+v", round, tc.name, *got, *want)
			}
			if n := runtime.NumGoroutine(); n > base+most {
				t.Fatalf("round %d, %s: %d goroutines with the pool open, want at most %d + %d", round, tc.name, n, base, most)
			}
		}
	}
	pool.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("goroutines: %d before the pool, %d after Close", base, n)
	}
}

// TestRunnerResetMatchesFresh runs each teardown case again and again
// on one runner, reset between executions together with its marked
// memory, so each execution follows one that ended by a decision, a
// stop, a budget failure, a script error or a body panic. The scripts
// alternate between the case's own, none and a single step of p1, and
// each outcome and error must equal those of a runner built anew with
// the same script. Close of the runners' pool must end every coroutine.
func TestRunnerResetMatchesFresh(t *testing.T) {
	base := settledGoroutines()
	pool := new(Pool)
	record := func(r *Runner) *Runner {
		r.RecordTrace()
		r.RecordSchedule()
		r.RecordDigests()
		return r
	}
	for _, tc := range teardownCases() {
		m := newTestMemory()
		m.Mark()
		r := record(pool.NewRunner(m, tc.bodies, tc.cfg))
		for i, script := range [][]Action{tc.cfg.Script, nil, {Step(1)}, tc.cfg.Script, nil} {
			if i > 0 {
				m.Reset()
				r.Reset(script)
			}
			cfg := tc.cfg
			cfg.Script = script
			fresh := record(NewRunner(newTestMemory(), tc.bodies, cfg))
			want, wantErr := tc.execute(fresh)
			got, gotErr := tc.execute(r)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, execution %d (script %s): reset err %v, fresh err %v", tc.name, i, FormatScript(script), gotErr, wantErr)
			}
			if (got == nil) != (want == nil) || got != nil && !reflect.DeepEqual(*got, *want) {
				t.Fatalf("%s, execution %d (script %s): reset outcome\n%+v\nfresh outcome\n%+v", tc.name, i, FormatScript(script), got, want)
			}
			// A paused case leaves both runners paused at the same point.
			fresh.Close()
			r.Close()
		}
	}
	pool.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("goroutines: %d before the pool, %d after Close", base, n)
	}
}

// TestResetPausedRunnerPanics checks that Reset refuses a runner whose
// execution is paused, and accepts it once the execution is closed.
func TestResetPausedRunnerPanics(t *testing.T) {
	resetPanics := func(r *Runner) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		r.Reset(nil)
		return false
	}
	r := NewRunner(newTestMemory(), []Body{func(p *Proc) Value { return p.Read("R") }}, Config{})
	defer r.Close()
	if resetPanics(r) {
		t.Fatal("Reset of a runner that never started panicked")
	}
	if _, err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if !resetPanics(r) {
		t.Fatal("Reset of a paused runner did not panic")
	}
	r.Close()
	if resetPanics(r) {
		t.Fatal("Reset after the execution was closed panicked")
	}
}
