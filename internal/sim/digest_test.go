package sim

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"rcons/internal/spec"
	"rcons/internal/types"
)

// TestMemoryDigestTracksSnapshot is the core incremental-hash invariant:
// across a series of mutations, two memories have equal digests exactly
// when they have equal snapshots.
func TestMemoryDigestTracksSnapshot(t *testing.T) {
	build := func(mutate func(*Memory)) *Memory {
		m := NewMemory()
		m.AddRegister("R", None)
		m.AddObject("O", types.NewCAS(), spec.State(types.Bottom))
		mutate(m)
		return m
	}
	variants := []*Memory{
		build(func(m *Memory) {}),
		build(func(m *Memory) { m.write("R", "x") }),
		build(func(m *Memory) { m.write("R", "x"); m.write("R", None) }), // back to initial
		build(func(m *Memory) { m.apply("O", "cas(_,x)") }),
		build(func(m *Memory) { m.AddRegister("S", "x") }),
		build(func(m *Memory) { m.FreshName("n") }), // only the counter differs
		build(func(m *Memory) { m.EnsureRegister("S", "x") }),
	}
	for i, a := range variants {
		for j, b := range variants {
			snapEq := a.Snapshot() == b.Snapshot()
			digEq := a.Digest() == b.Digest()
			if snapEq != digEq {
				t.Errorf("variant %d vs %d: snapshot equal=%v but digest equal=%v\n--- a ---\n%s--- b ---\n%s",
					i, j, snapEq, digEq, a.Snapshot(), b.Snapshot())
			}
		}
	}
}

// TestMemoryDigestIndependentOfAllocationOrder checks the property the
// model checker's pruning relies on: the digest (like the sorted
// snapshot) must not depend on the order in which cells were allocated
// or written back to the same final content.
func TestMemoryDigestIndependentOfAllocationOrder(t *testing.T) {
	a := NewMemory()
	a.AddRegister("x", "1")
	a.AddRegister("y", "2")
	a.AddObject("o", types.NewSticky(), spec.State(types.Bottom))

	b := NewMemory()
	b.AddObject("o", types.NewSticky(), spec.State(types.Bottom))
	b.AddRegister("y", None)
	b.AddRegister("x", "1")
	b.write("y", "2")

	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("test setup wrong: snapshots differ\n%s\n%s", a.Snapshot(), b.Snapshot())
	}
	if a.Digest() != b.Digest() {
		t.Fatal("digest depends on allocation/write order")
	}
}

// TestSnapshotConcurrentAllocation exercises the concurrent-allocation
// path the race detector guards: body preludes allocating (Ensure*)
// while other goroutines snapshot, digest and list names. All four
// operations share the cached sorted-name slices, so this doubles as the
// race test for the cache invalidation.
func TestSnapshotConcurrentAllocation(t *testing.T) {
	m := NewMemory()
	m.AddRegister("seed", None)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.EnsureRegister("r"+strconv.Itoa(g*50+i), "v")
				m.EnsureObject("o"+strconv.Itoa(g*50+i), types.NewSticky(), spec.State(types.Bottom))
				_ = m.Snapshot()
				_ = m.Digest()
				_ = m.RegisterNames()
			}
		}()
	}
	wg.Wait()
	if got := len(m.RegisterNames()); got != 201 {
		t.Fatalf("RegisterNames() has %d entries, want 201", got)
	}
	// The cached slice and a fresh sort must agree after the dust settles.
	names := m.RegisterNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("RegisterNames() not sorted at %d: %q >= %q", i, names[i-1], names[i])
		}
	}
}

// TestRegisterNamesCallerOwned pins that the returned slice is a copy:
// mutating it must not corrupt the memory's cached sorted names.
func TestRegisterNamesCallerOwned(t *testing.T) {
	m := NewMemory()
	m.AddRegister("a", None)
	m.AddRegister("b", None)
	names := m.RegisterNames()
	names[0] = "zzz"
	if got := m.RegisterNames()[0]; got != "a" {
		t.Fatalf("caller mutation leaked into the cache: first name = %q", got)
	}
}

// TestOutcomeDigestsMatchReexecution checks rolling event digests are a
// pure function of the executed schedule, and that a crash resets a
// process's history digest (post-crash digest equals a fresh process
// that performed only the post-crash events).
func TestOutcomeDigestsMatchReexecution(t *testing.T) {
	run := func(script []Action) *Outcome {
		m := NewMemory()
		m.AddRegister("R", None)
		body := func(p *Proc) Value {
			v := p.Read("R")
			p.Write("R", v+"x")
			p.Write("R", "done")
			return p.Read("R")
		}
		r := NewRunner(m, []Body{body, body}, Config{Script: script, HaltAtScriptEnd: true, MaxSteps: 100})
		r.RecordDigests()
		out, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	script := []Action{Step(0), Step(1), Step(0), Crash(0), Step(0)}
	a, b := run(script), run(script)
	for i := range a.EventHashes {
		if a.EventHashes[i] != b.EventHashes[i] || a.ClockHashes[i] != b.ClockHashes[i] {
			t.Fatalf("digests differ across identical executions for p%d", i)
		}
	}

	// Distinct histories produce distinct digests.
	c := run([]Action{Step(0), Step(1), Step(0)})
	if a.EventHashes[1] == c.EventHashes[1] && a.Steps != c.Steps {
		// p1 took the same single step in both — ITS digest may legally
		// match; p0's must not (three steps + crash + restart vs two).
		if a.EventHashes[0] == c.EventHashes[0] {
			t.Fatal("p0 digest ignores its crash/restart history")
		}
	}
}

// TestFormatScript pins the compact rendering every schedule consumer
// (counterexamples, reports, /v1/mc) shares.
func TestFormatScript(t *testing.T) {
	if got := FormatScript([]Action{Step(0), Crash(1), CrashAll()}); got != "s0 c1 C*" {
		t.Fatalf("FormatScript = %q, want %q", got, "s0 c1 C*")
	}
	if got := FormatScript(nil); got != "(empty)" {
		t.Fatalf("FormatScript(nil) = %q, want %q", got, "(empty)")
	}
}

// TestParseScriptRoundTrip checks FormatScript/ParseScript are inverses
// on every action kind, and that garbage is rejected.
func TestParseScriptRoundTrip(t *testing.T) {
	scripts := [][]Action{
		nil,
		{Step(0)},
		{Step(0), Step(12), Crash(3), CrashAll(), Step(1)},
	}
	for _, s := range scripts {
		got, err := ParseScript(FormatScript(s))
		if err != nil {
			t.Fatalf("ParseScript(%q): %v", FormatScript(s), err)
		}
		if FormatScript(got) != FormatScript(s) {
			t.Fatalf("round trip changed %q to %q", FormatScript(s), FormatScript(got))
		}
	}
	if got, err := ParseScript("  s0\n s1  "); err != nil || len(got) != 2 {
		t.Fatalf("whitespace-tolerant parse failed: %v %v", got, err)
	}
	for _, bad := range []string{"s", "sx", "c-1", "x0", "s0 q1", "C"} {
		if _, err := ParseScript(bad); err == nil {
			t.Errorf("ParseScript(%q) accepted garbage", bad)
		}
	}
}

// BenchmarkMemorySnapshot measures Snapshot on a steady-state heap (no
// allocation between calls) — the satellite fix: the sorted name slices
// are cached, so per-call allocations drop to the output string itself.
func BenchmarkMemorySnapshot(b *testing.B) {
	m := NewMemory()
	for i := 0; i < 32; i++ {
		m.AddRegister(fmt.Sprintf("R%02d", i), "v")
	}
	for i := 0; i < 8; i++ {
		m.AddObject(fmt.Sprintf("O%d", i), types.NewSticky(), spec.State(types.Bottom))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Snapshot()
	}
}

// BenchmarkMemoryDigest is the incremental counterpart: O(1) per call.
func BenchmarkMemoryDigest(b *testing.B) {
	m := NewMemory()
	for i := 0; i < 32; i++ {
		m.AddRegister(fmt.Sprintf("R%02d", i), "v")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Digest()
	}
}
