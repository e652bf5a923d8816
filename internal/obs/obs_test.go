package obs

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rc_test_total", "help", "op").With("get")
	c.Inc()
	c.Add(4)
	c.Add(-10) // monotone: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.Value("rc_test_total", "get"); got != 5 {
		t.Fatalf("registry value = %v, want 5", got)
	}
	// Absent series and absent family both read as zero.
	if got := r.Value("rc_test_total", "put"); got != 0 {
		t.Fatalf("absent series = %v, want 0", got)
	}
	if got := r.Value("rc_missing_total"); got != 0 {
		t.Fatalf("absent family = %v, want 0", got)
	}
}

func TestCounterVecSeparatesSeries(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("rc_ops_total", "", "op")
	v.With("a").Add(2)
	v.With("b").Add(3)
	if got := v.With("a").Value(); got != 2 {
		t.Fatalf("series a = %d, want 2", got)
	}
	if got := v.With("b").Value(); got != 3 {
		t.Fatalf("series b = %d, want 3", got)
	}
	// Same labels resolve to the same underlying counter.
	if v.With("a") != v.With("a") {
		t.Fatal("With not idempotent")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("rc_inflight", "").With()
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	var hits atomic.Int64
	r.CounterFunc("rc_cache_hits_total", "", func() float64 {
		return float64(hits.Load())
	}, "tier", "mem")
	hits.Store(7)
	if got := r.Value("rc_cache_hits_total", "mem"); got != 7 {
		t.Fatalf("func counter = %v, want 7", got)
	}
	hits.Store(9)
	if got := r.Value("rc_cache_hits_total", "mem"); got != 9 {
		t.Fatalf("func counter after update = %v, want 9 (must sample live)", got)
	}

	r.GaugeFunc("rc_goroutines", "", func() float64 { return 12 })
	if got := r.Value("rc_goroutines"); got != 12 {
		t.Fatalf("func gauge = %v, want 12", got)
	}
}

func TestReRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("rc_x_total", "", "k").With("v")
	b := r.Counter("rc_x_total", "", "k").With("v")
	if a != b {
		t.Fatal("re-registration must return the same series")
	}
}

func TestReRegistrationConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("rc_x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict must panic")
		}
	}()
	r.Gauge("rc_x_total", "")
}

func TestKindString(t *testing.T) {
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" ||
		KindHistogram.String() != "histogram" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{5, "5"},
		{-3, "-3"},
		{2.5, "2.5"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{0.001, "0.001"},
	}
	for _, c := range cases {
		if got := formatValue(c.in); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}
