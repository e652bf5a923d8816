package obs

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentUpdatesWhileRendering hammers counters, gauges and
// histograms — including creation of new labelled series — while other
// goroutines render the exposition and read values and quantiles. Run
// under -race this is the package's main concurrency safety net.
func TestConcurrentUpdatesWhileRendering(t *testing.T) {
	r := NewRegistry()
	ctr := r.Counter("rc_race_total", "", "worker")
	g := r.Gauge("rc_race_gauge", "")
	h := r.Histogram("rc_race_seconds", "", []float64{0.01, 0.1, 1}, "worker")

	const (
		writers = 8
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			label := string(rune('a' + id))
			c := ctr.With(label)
			hist := h.With(label)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.With().Add(1)
				hist.Observe(float64(i%100) / 100)
				if i%100 == 0 {
					// Exercise series creation racing with rendering.
					ctr.With(label + "-extra").Inc()
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("render: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.Value("rc_race_total", "a")
			_ = h.With("a").Quantile(0.99)
		}
	}()
	wg.Wait()

	var total int64
	for w := 0; w < writers; w++ {
		total += ctr.With(string(rune('a' + w))).Value()
	}
	wantMin := int64(writers * iters)
	if total < wantMin {
		t.Fatalf("counters lost updates: total = %d, want >= %d", total, wantMin)
	}
	if got := g.With().Value(); got != float64(writers*iters) {
		t.Fatalf("gauge = %v, want %v", got, writers*iters)
	}
}

// TestConcurrentValueDuringScrape hammers Registry.Value — hits,
// misses, labelled histogram counts and func-backed series — while
// other goroutines render the exposition and new series are still
// being created. Run under -race this guards the read path the
// /healthz handlers use mid-scrape.
func TestConcurrentValueDuringScrape(t *testing.T) {
	r := NewRegistry()
	ctr := r.Counter("rc_vrace_total", "", "worker")
	h := r.Histogram("rc_vrace_seconds", "", []float64{0.01, 0.1}, "worker")
	r.CounterFunc("rc_vrace_func_total", "", func() float64 { return 42 })

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			label := string(rune('a' + i%8))
			ctr.With(label).Inc()
			h.With(label).Observe(float64(i%100) / 1000)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("render: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = r.Value("rc_vrace_total", string(rune('a'+i%8)))
			_ = r.Value("rc_vrace_seconds", "a") // histogram: observation count
			_ = r.Value("rc_vrace_func_total")
			_ = r.Value("rc_vrace_total", "never-written") // miss, same lock path
			_ = r.Value("rc_no_such_family")
		}
	}()
	wg.Wait()

	if v := r.Value("rc_vrace_func_total"); v != 42 {
		t.Fatalf("func-backed Value = %v, want 42", v)
	}
	var total float64
	for w := 0; w < 8; w++ {
		total += r.Value("rc_vrace_total", string(rune('a'+w)))
	}
	if total != 2000 {
		t.Fatalf("counter total via Value = %v, want 2000", total)
	}
}
