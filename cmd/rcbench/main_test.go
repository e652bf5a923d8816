package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcons/internal/bench"
)

func TestListRuns(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("rcbench -list exited %d:\n%s", code, out.String())
	}
	for _, want := range []string{"harness/E10", "mc/fingerprint-incremental", "sim/snapshot", "obs/counter-inc", "obs/histogram-observe"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %s", want)
		}
	}
}

func TestBadFlagsAndFilters(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-run", "("}, &out); code != 1 {
		t.Fatalf("bad -run pattern exited %d", code)
	}
	out.Reset()
	if code := run([]string{"-run", "no-such-benchmark", "-baseline", "", "-out", ""}, &out); code != 1 {
		t.Fatalf("empty selection exited %d:\n%s", code, out.String())
	}
}

// TestQuickSubsetWritesArtifact runs the two cheapest real benchmarks
// end to end into a temp dir and checks the artifact round-trips.
func TestQuickSubsetWritesArtifact(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "BENCH_0.json")
	var out strings.Builder
	code := run([]string{"-quick", "-run", `^sim/(snapshot|digest)$`, "-dir", dir, "-out", outPath}, &out)
	if code != 0 {
		t.Fatalf("rcbench exited %d:\n%s", code, out.String())
	}
	f, err := bench.ReadJSON(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mode != "quick" || len(f.Results) != 2 {
		t.Fatalf("artifact mode=%q results=%d, want quick/2", f.Mode, len(f.Results))
	}
	for _, r := range f.Results {
		if r.NsPerOp <= 0 {
			t.Errorf("%s: ns_per_op = %v", r.Name, r.NsPerOp)
		}
	}
}

// TestObsMicrosAndTelemetrySnapshot runs the telemetry micro-benchmarks
// end to end and checks the artifact carries the registry snapshot.
func TestObsMicrosAndTelemetrySnapshot(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "BENCH_0.json")
	var out strings.Builder
	code := run([]string{"-quick", "-run", `^obs/`, "-dir", dir, "-out", outPath}, &out)
	if code != 0 {
		t.Fatalf("rcbench exited %d:\n%s", code, out.String())
	}
	f, err := bench.ReadJSON(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != 2 {
		t.Fatalf("got %d results, want obs/counter-inc + obs/histogram-observe", len(f.Results))
	}
	// The obs micros use private registries, so the process-wide
	// snapshot may be empty here — but if any mc benchmark ran earlier
	// in this process, its published totals must round-trip.
	if f.Telemetry != nil {
		for k, v := range f.Telemetry {
			if v < 0 {
				t.Errorf("telemetry %s = %v", k, v)
			}
		}
	}
}

// TestRegressionGate fabricates a fast baseline, re-runs the same
// benchmark, and expects exit code 2 (regression beyond threshold) —
// then exit 0 with -fail=false and with a huge threshold.
func TestRegressionGate(t *testing.T) {
	dir := t.TempDir()
	fast := bench.NewFile("quick", []bench.Result{{Name: "sim/digest", Iters: 1, NsPerOp: 0.0001}})
	if err := fast.WriteJSON(filepath.Join(dir, "BENCH_0.json")); err != nil {
		t.Fatal(err)
	}
	args := []string{"-quick", "-run", `^sim/digest$`, "-dir", dir, "-out", filepath.Join(dir, "BENCH_1.json")}

	var out strings.Builder
	if code := run(args, &out); code != 2 {
		t.Fatalf("regression not detected (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing REGRESSION banner:\n%s", out.String())
	}
	out.Reset()
	if code := run(append(args, "-fail=false"), &out); code != 0 {
		t.Fatalf("-fail=false still exited %d", code)
	}
	out.Reset()
	if code := run(append(args, "-threshold", "1e12"), &out); code != 0 {
		t.Fatalf("huge threshold still exited %d:\n%s", code, out.String())
	}
}

// TestAutoBaselineAndFilteredRunWritesNothing checks artifact
// discovery: with BENCH_2.json present it is auto-picked as baseline,
// and a -run-filtered invocation with the default "auto" output writes
// NO new artifact (a partial file would silently become the next
// baseline and shrink the gate).
func TestAutoBaselineAndFilteredRunWritesNothing(t *testing.T) {
	dir := t.TempDir()
	seed := bench.NewFile("quick", []bench.Result{{Name: "sim/digest", Iters: 1, NsPerOp: 1e12}})
	if err := seed.WriteJSON(filepath.Join(dir, "BENCH_2.json")); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code := run([]string{"-quick", "-run", `^sim/digest$`, "-dir", dir}, &out)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "baseline: "+filepath.Join(dir, "BENCH_2.json")) {
		t.Errorf("auto baseline not picked:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_3.json")); err == nil {
		t.Error("filtered run wrote an auto-numbered partial artifact")
	}
	if !strings.Contains(out.String(), "not writing an auto-numbered artifact") {
		t.Errorf("missing filtered-run note:\n%s", out.String())
	}
	// The giant baseline makes this run a huge improvement — marked ++.
	if !strings.Contains(out.String(), "++") {
		t.Errorf("improvement marker missing:\n%s", out.String())
	}
}

// TestAutoNumberingUnfiltered checks an unfiltered run auto-numbers the
// next artifact; the registry subset is simulated with an explicit -out
// elsewhere, so this uses the real registry only via -list (cheap) and
// exercises numbering through an explicit tiny filter with -out.
func TestAutoNumberingUnfiltered(t *testing.T) {
	dir := t.TempDir()
	seed := bench.NewFile("quick", []bench.Result{{Name: "sim/digest", Iters: 1, NsPerOp: 10}})
	if err := seed.WriteJSON(filepath.Join(dir, "BENCH_7.json")); err != nil {
		t.Fatal(err)
	}
	path, idx, err := bench.LatestArtifact(dir)
	if err != nil || idx != 7 || path != filepath.Join(dir, "BENCH_7.json") {
		t.Fatalf("LatestArtifact = (%q, %d, %v), want BENCH_7.json/7", path, idx, err)
	}
}

// TestCrossModeGateSkipsWorkloadVaryingBenches pins the mode-mismatch
// rule: a full-mode baseline whose harness/E1 entry is absurdly fast
// must NOT fail a -quick run (the quick experiment does less work), but
// a fixed-workload benchmark still gates across modes.
func TestCrossModeGateSkipsWorkloadVaryingBenches(t *testing.T) {
	dir := t.TempDir()
	basefile := bench.NewFile("full", []bench.Result{
		{Name: "harness/E3", Iters: 2, NsPerOp: 0.0001}, // would regress wildly if gated
		{Name: "sim/digest", Iters: 1, NsPerOp: 1e12},   // comparable; huge improvement
	})
	if err := basefile.WriteJSON(filepath.Join(dir, "BENCH_0.json")); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	code := run([]string{"-quick", "-run", `^(harness/E3|sim/digest)$`, "-dir", dir,
		"-out", filepath.Join(dir, "BENCH_1.json")}, &out)
	if code != 0 {
		t.Fatalf("cross-mode run exited %d (workload-varying bench gated?):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "workload-varying benchmarks excluded") {
		t.Errorf("missing cross-mode note:\n%s", out.String())
	}
	// The measurement line for E3 is fine; a comparison (ratio) line
	// would mean the workload-varying bench was gated across modes.
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "harness/E3") && strings.Contains(line, "x  (") {
			t.Errorf("harness/E3 still compared across modes: %s", line)
		}
	}
}

func TestCompareThreshold(t *testing.T) {
	base := []bench.Result{{Name: "a", NsPerOp: 100}, {Name: "gone", NsPerOp: 50}}
	cur := []bench.Result{{Name: "a", NsPerOp: 130}, {Name: "new", NsPerOp: 10}}
	deltas := bench.Compare(base, cur, 0.25)
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1 (unmatched names ignored)", len(deltas))
	}
	if !deltas[0].Regressed {
		t.Errorf("30%% slowdown not flagged at 25%% threshold: %+v", deltas[0])
	}
	if d := bench.Compare(base, cur, 0.5); d[0].Regressed {
		t.Errorf("30%% slowdown flagged at 50%% threshold")
	}
}
