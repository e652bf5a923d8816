package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"rcons/internal/intern"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// contendedBodies builds two processes racing on a register and a CAS
// object — enough shared traffic that any scheduling nondeterminism
// would show up in the trace.
func contendedMemory() *Memory {
	m := NewMemory()
	m.AddRegister("R", None)
	m.AddObject("O", types.NewCAS(), spec.State(types.Bottom))
	return m
}

func contendedBody(i int, v Value) Body {
	return func(p *Proc) Value {
		p.Write("R", v)
		p.Apply("O", spec.FormatOp("cas", types.Bottom, v))
		if got := Value(p.ReadObject("O")); got != None {
			return got
		}
		return p.Read("R")
	}
}

func runSeeded(t *testing.T, cfg Config) *Outcome {
	t.Helper()
	m := contendedMemory()
	bodies := []Body{contendedBody(0, "a"), contendedBody(1, "b")}
	r := NewRunner(m, bodies, cfg)
	r.RecordTrace()
	r.RecordSchedule()
	out, err := r.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

// TestSeedDeterminism is the regression test for injectable/deterministic
// runner RNG: the same seed must reproduce the identical execution —
// trace, schedule, decisions — which is what makes model-checker
// counterexamples replayable.
func TestSeedDeterminism(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, 12345} {
		cfg := Config{Seed: seed, CrashProb: 0.3, MaxCrashes: 2}
		a := runSeeded(t, cfg)
		b := runSeeded(t, cfg)
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Fatalf("seed %d: traces differ:\n%s\nvs\n%s",
				seed, FormatTrace(a.Trace), FormatTrace(b.Trace))
		}
		if !reflect.DeepEqual(a.Schedule, b.Schedule) {
			t.Fatalf("seed %d: schedules differ: %s vs %s",
				seed, FormatScript(a.Schedule), FormatScript(b.Schedule))
		}
		if !reflect.DeepEqual(a.Decisions, b.Decisions) {
			t.Fatalf("seed %d: decisions differ: %v vs %v", seed, a.Decisions, b.Decisions)
		}
	}
}

// TestInjectedSourceMatchesSeed checks Config.Source is honoured: an
// explicitly injected rand.NewSource(seed) behaves exactly like Seed.
func TestInjectedSourceMatchesSeed(t *testing.T) {
	bySeed := runSeeded(t, Config{Seed: 99, CrashProb: 0.25, MaxCrashes: 1})
	bySrc := runSeeded(t, Config{Source: rand.NewSource(99), CrashProb: 0.25, MaxCrashes: 1})
	if !reflect.DeepEqual(bySeed.Trace, bySrc.Trace) {
		t.Fatalf("injected source diverged from seed:\n%s\nvs\n%s",
			FormatTrace(bySeed.Trace), FormatTrace(bySrc.Trace))
	}
}

// TestScheduleReplaysIdentically checks the core replay property: running
// the recorded Outcome.Schedule as a script (with HaltAtScriptEnd)
// reproduces the execution event-for-event.
func TestScheduleReplaysIdentically(t *testing.T) {
	orig := runSeeded(t, Config{Seed: 5, CrashProb: 0.3, MaxCrashes: 2})

	m := contendedMemory()
	bodies := []Body{contendedBody(0, "a"), contendedBody(1, "b")}
	r := NewRunner(m, bodies, Config{Script: orig.Schedule, HaltAtScriptEnd: true})
	r.RecordTrace()
	replay, err := r.Run()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(orig.Trace, replay.Trace) {
		t.Fatalf("replay trace differs:\n%s\nvs\n%s",
			FormatTrace(orig.Trace), FormatTrace(replay.Trace))
	}
	if !reflect.DeepEqual(orig.Decisions, replay.Decisions) {
		t.Fatalf("replay decisions differ: %v vs %v", orig.Decisions, replay.Decisions)
	}
}

// TestFairCompletionDeterministic checks FairCompletion is a pure
// function of the script prefix: two runs produce identical schedules,
// and the completion injects no crashes.
func TestFairCompletionDeterministic(t *testing.T) {
	run := func() *Outcome {
		m := contendedMemory()
		bodies := []Body{contendedBody(0, "a"), contendedBody(1, "b")}
		r := NewRunner(m, bodies, Config{
			Script:         []Action{Step(0), Crash(0), Step(1)},
			FairCompletion: true,
		})
		r.RecordTrace()
		r.RecordSchedule()
		out, err := r.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Fatalf("fair completion schedules differ: %s vs %s",
			FormatScript(a.Schedule), FormatScript(b.Schedule))
	}
	for i, d := range a.Decided {
		if !d {
			t.Fatalf("process %d undecided after fair completion", i)
		}
	}
	crashes := 0
	for _, act := range a.Schedule[3:] { // past the scripted prefix
		if act.Kind != ActStep {
			crashes++
		}
	}
	if crashes != 0 {
		t.Fatalf("fair completion injected %d crashes: %s", crashes, FormatScript(a.Schedule))
	}
}

// TestSnapshotReflectsState checks Memory.Snapshot distinguishes states
// and is stable for identical heaps.
func TestSnapshotReplaysState(t *testing.T) {
	a, b := contendedMemory(), contendedMemory()
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("identical memories produced different snapshots:\n%s\nvs\n%s", a.Snapshot(), b.Snapshot())
	}
	b.write("R", "x", intern.ID("x"))
	if a.Snapshot() == b.Snapshot() {
		t.Fatal("snapshot did not reflect a register write")
	}
	c := contendedMemory()
	c.FreshName("tmp")
	if a.Snapshot() == c.Snapshot() {
		t.Fatal("snapshot did not reflect the allocation counter")
	}
}
