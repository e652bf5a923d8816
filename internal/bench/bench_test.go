package bench

import "testing"

// TestMeasureDerivesRatesOnlyForCounts checks that Measure turns a
// count into both a per-op figure and a per-second rate, but a
// duration only into a per-op figure: "p99_seconds_per_sec" is no
// throughput, and BestOf would keep its highest value as the best.
func TestMeasureDerivesRatesOnlyForCounts(t *testing.T) {
	bm := Benchmark{
		Name: "fake",
		Run: func(iters int) (Metrics, error) {
			return Metrics{"nodes": float64(10 * iters), "p99_seconds": 0.002}, nil
		},
	}
	res, err := Measure(bm, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["nodes_per_op"]; got != 10 {
		t.Errorf("nodes_per_op = %g, want 10", got)
	}
	if got, ok := res.Metrics["nodes_per_sec"]; !ok || got <= 0 {
		t.Errorf("nodes_per_sec = %g (present %v), want a positive rate", got, ok)
	}
	if got := res.Metrics["p99_seconds_per_op"]; got != 0.0005 {
		t.Errorf("p99_seconds_per_op = %g, want 0.0005", got)
	}
	if got, ok := res.Metrics["p99_seconds_per_sec"]; ok {
		t.Errorf("p99_seconds_per_sec = %g: a duration must not get a per-second rate", got)
	}
}
