package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"rcons/internal/spec"
	"rcons/internal/types"
)

// errType is a spec.Type whose transition function always fails,
// forcing a per-item classification error.
type errType struct{}

func (errType) Name() string                { return "err-type" }
func (errType) InitialStates() []spec.State { return []spec.State{"q0"} }
func (errType) Ops() []spec.Op              { return []spec.Op{"op"} }
func (errType) Apply(spec.State, spec.Op) (spec.State, spec.Response, error) {
	return "", "", errors.New("apply exploded")
}

// TestClassifyEachPerItemErrors: one failing item must neither abort
// nor corrupt the other items' classifications, and ClassifyAll must
// keep its first-error contract.
func TestClassifyEachPerItemErrors(t *testing.T) {
	eng := New(Options{Workers: 4})
	good1, err := types.ByName("S_3")
	if err != nil {
		t.Fatal(err)
	}
	good2, err := types.ByName("cas")
	if err != nil {
		t.Fatal(err)
	}
	ts := []spec.Type{good1, errType{}, good2}
	out, errs := eng.ClassifyEach(context.Background(), ts, 3)
	if len(out) != 3 || len(errs) != 3 {
		t.Fatalf("lengths: out=%d errs=%d", len(out), len(errs))
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("good items errored: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("failing item reported no error")
	}
	if out[0].TypeName != "S_3" || out[2].TypeName != "compare&swap" {
		t.Fatalf("good classifications corrupted: %q / %q", out[0].TypeName, out[2].TypeName)
	}
	// Per-item results match solo classification exactly.
	solo, err := eng.Classify(context.Background(), good1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if solo.RconsLo != out[0].RconsLo || solo.RconsHi != out[0].RconsHi {
		t.Fatalf("batch vs solo rcons band: [%d,%d] vs [%d,%d]",
			out[0].RconsLo, out[0].RconsHi, solo.RconsLo, solo.RconsHi)
	}

	if _, err := eng.ClassifyAll(context.Background(), ts, 3); err == nil {
		t.Fatal("ClassifyAll swallowed the per-item error")
	}
}

// peakType is a one-state type whose Apply records the most goroutines
// alive during any of its calls.
type peakType struct{ peak *atomic.Int64 }

func (peakType) Name() string                { return "peak-type" }
func (peakType) InitialStates() []spec.State { return []spec.State{"q"} }
func (peakType) Ops() []spec.Op              { return []spec.Op{"op"} }
func (p peakType) Apply(spec.State, spec.Op) (spec.State, spec.Response, error) {
	n := int64(runtime.NumGoroutine())
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	return "q", "ok", nil
}

// TestClassifyEachBoundsGoroutines: a batch runs on at most Workers
// goroutines, not one per item, so a large batch parks nothing. Each
// classification may add a second scan and each search its helpers,
// but those take the engine's Workers slots.
func TestClassifyEachBoundsGoroutines(t *testing.T) {
	const workers, items = 2, 500
	var peak atomic.Int64
	ts := make([]spec.Type, items)
	for i := range ts {
		ts[i] = peakType{&peak}
	}
	eng := New(Options{Workers: workers})
	base := int64(settledGoroutines())
	_, errs := eng.ClassifyEach(context.Background(), ts, 2)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if limit := base + 3*workers; peak.Load() > limit {
		t.Fatalf("%d goroutines ran during a %d-item batch on %d workers; want ≤ %d", peak.Load(), items, workers, limit)
	}
}
