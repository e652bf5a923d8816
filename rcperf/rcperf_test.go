package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  300 * time.Millisecond,
		trace:    trace,
		workdir:  t.TempDir(),
		size:     tinySizes,
	}
}

// openSockets counts this process's open socket descriptors.
func openSockets(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}

// baseline is the process state a run must return to.
type baseline struct{ goroutines, sockets int }

func takeBaseline(t *testing.T) baseline {
	return baseline{goroutines: runtime.NumGoroutine(), sockets: openSockets(t)}
}

// assertClean checks that a finished run left no goroutine, socket or
// run directory behind. Goroutines and sockets get a moment to unwind.
func assertClean(t *testing.T, b baseline, workdir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, s := runtime.NumGoroutine(), openSockets(t)
		if g <= b.goroutines && s <= b.sockets {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("run left %d goroutines (baseline %d) and %d sockets (baseline %d):\n%s",
				g, b.goroutines, s, b.sockets, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
	runs, err := filepath.Glob(filepath.Join(workdir, "rcperf-run-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) > 0 {
		t.Fatalf("run directories left behind: %v", runs)
	}
}

func checkMetrics(t *testing.T, got metricSet, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	endToEnd, _ := declared(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name, false)
			b := takeBaseline(t)
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res.Metrics, endToEnd)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", n, m.Value)
				}
			}
			assertClean(t, b, cfg.workdir)
		})
	}
}

func TestTracedPassTiny(t *testing.T) {
	_, perLayer := declared(t)
	cfg := tinyConfig(t, "mc-safe", true)
	b := takeBaseline(t)
	res, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	checkMetrics(t, res.Metrics, perLayer)
	for _, n := range []string{"stage.warm.root.count", "stage.cold.store.local.count", "engine.search.count", "mc.cas.nodes"} {
		if res.Metrics[n].Value <= 0 {
			t.Errorf("%s = %g, want > 0", n, res.Metrics[n].Value)
		}
	}
	dump, err := os.ReadFile(filepath.Join(cfg.workdir, "rcperf-spans-mc-safe-7.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), `"store.local"`) || !strings.Contains(string(dump), `"source":"serve-cold"`) {
		t.Error("span dump lacks the serve-cold store.local spans")
	}
	if got := res.Metrics["engine.persist_hit_ratio"].Value; got != 1 {
		t.Errorf("engine.persist_hit_ratio = %g, want 1: every serve-cold table must be answered by the store", got)
	}
	assertClean(t, b, cfg.workdir)
}

func TestWrongAnswerFails(t *testing.T) {
	cfg := tinyConfig(t, "census-cold", false)
	cfg.censusDigest = strings.Repeat("0", 64)
	b := takeBaseline(t)
	res, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
		t.Fatalf("tampered digest: correct=%v attempted=%d failed=%d, want a failed run", res.Correct, res.Attempted, res.Failed)
	}
	assertClean(t, b, cfg.workdir)
}

func TestInterruptCleansUp(t *testing.T) {
	for _, name := range []string{"serve-cold", "census-cold"} {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name, false)
			cfg.seconds = time.Minute
			b := takeBaseline(t)
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			res, err := run(ctx, cfg, io.Discard)
			if err == nil {
				t.Fatalf("interrupted run returned a result: %+v", res)
			}
			assertClean(t, b, cfg.workdir)
		})
	}
}

func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"--workload", "nope"}, 2},
		{[]string{"--workload", "mc-safe", "--trace", "2"}, 2},
		{[]string{"--workload", "mc-safe", "--seconds", "0"}, 2},
		{[]string{"--workload", "mc-safe", "--seconds", "0.2", "--workdir", dir}, 0},
	} {
		var out strings.Builder
		if code := realMain(tc.args, &out, io.Discard); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if tc.code == 0 {
			var res result
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
				t.Errorf("%v: last line %q is not a correct result (%v)", tc.args, lines[len(lines)-1], err)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	n := &spanNode{StartUS: 0, DurationUS: 100, Spans: []*spanNode{
		{StartUS: 10, DurationUS: 30},
		{StartUS: 20, DurationUS: 40}, // overlaps the first: union 10..60
		{StartUS: 90, DurationUS: 50}, // runs past the parent: clipped to 90..100
	}}
	if got := selfTime(n); got != 40 {
		t.Fatalf("selfTime = %g, want 40", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %g, want 2", got)
	}
	if got := tailQ(20); got != 0.5 {
		t.Errorf("tailQ(20) = %g, want 0.5", got)
	}
	if got := tailQ(100000); got != 0.99 {
		t.Errorf("tailQ(100000) = %g, want 0.99", got)
	}
	if got := servedItems([]byte(`{"limit":3,"count":50,"ok":49,"items":[`)); got != 49 {
		t.Errorf("batch served items = %d, want 49", got)
	}
	if got := servedItems([]byte(`{"count":22,"limit":3,"results":[`)); got != 22 {
		t.Errorf("zoo served items = %d, want 22", got)
	}
}
