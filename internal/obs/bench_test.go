package obs

import "testing"

// BenchmarkCounterInc is a labelled counter increment, the hot path of
// every instrumented request.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_ops_total", "obs benchmark counter", "path").With("/bench")
	n := int64(0)
	for b.Loop() {
		c.Inc()
		n++
	}
	if c.Value() != n {
		b.Fatalf("counter lost increments: %d, want %d", c.Value(), n)
	}
}

// BenchmarkHistogramObserve is one histogram observation: a binary
// search over the buckets plus the atomic count and sum.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_latency_seconds", "obs benchmark histogram", nil).With()
	for i := 0; b.Loop(); i++ {
		h.Observe(float64(i%97) / 1000)
	}
}
