// Package obs is the repository's telemetry layer: a dependency-free
// (standard library only) metrics registry, Prometheus text exposition,
// structured-logging and trace-ID propagation helpers, and a progress
// API for long-running searches.
//
// The registry holds three metric kinds — monotone counters, free-moving
// gauges, and fixed-bucket histograms (quantiles derivable client-side
// or via Histogram.Quantile) — each optionally split by a small set of
// labels. Subsystems that already maintain their own atomic counters
// (engine classification memo, store, job manager) re-publish them through
// CounterFunc/GaugeFunc callbacks sampled at collection time, so the
// subsystem's counter stays the single source of truth: /metrics and
// any JSON view built from Registry.Value can never drift apart.
//
// Everything is safe for concurrent use; the hot-path operations
// (Counter.Inc, Gauge.Set, Histogram.Observe) are single atomic
// instructions plus, for labelled metrics resolved via With, one
// read-locked map lookup. Callers on genuinely hot paths should resolve
// With(...) once and retain the handle.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer with the Prometheus TYPE spelling.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Registry is a set of named metric families. The zero value is not
// usable; create with NewRegistry or use the process-wide Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric: a kind, a help string, a label schema and
// the live series (one per distinct label-value tuple).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
}

// series is one (family, label values) instance. Exactly one of the
// payload fields is non-nil; fn-backed series are sampled at read time.
type series struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, used by binaries that have
// no per-server registry of their own (rcons, rcatlas, rcbench).
func Default() *Registry { return defaultRegistry }

// family returns (creating if needed) the named family, enforcing that
// re-registrations agree on kind and label schema — disagreement is a
// programming error, not a runtime condition.
func (r *Registry) family(name, help string, kind Kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labels: append([]string(nil), labels...),
			series: map[string]*series{},
		}
		if kind == KindHistogram {
			f.buckets = append([]float64(nil), buckets...)
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
			name, kind, labels, f.kind, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v",
				name, labels, f.labels))
		}
	}
	return f
}

// seriesKey joins label values into the map key. The separator cannot
// appear in a label value unescaped and still collide: 0x00 is invalid
// in the values this repository uses (metric labels are paths, methods,
// task names), and even a collision would only merge two series.
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

// lookup returns (creating via make if needed) the series for values.
func (f *family) lookup(values []string, make func() *series) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = make()
	s.values = append([]string(nil), values...)
	f.series[key] = s
	return s
}

// ---- counters ----

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a counter family; With resolves one labelled series.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). With no registered labels, call With() for the single series.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.lookup(values, func() *series { return &series{ctr: &Counter{}} }).ctr
}

// Counter registers (idempotently) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, nil, labels)}
}

// CounterFunc registers a callback-backed counter series: fn is sampled
// at every collection, so a subsystem's own atomic counter remains the
// single source of truth. labelPairs alternate key, value and define
// both the family's label schema and this series' position in it; every
// CounterFunc of one name must use the same keys.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.fnSeries(name, help, KindCounter, fn, labelPairs)
}

// ---- gauges ----

// Gauge is a metric that can go up and down. It stores a float64.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a gauge family; With resolves one labelled series.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.lookup(values, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// Gauge registers (idempotently) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, nil, labels)}
}

// GaugeFunc registers a callback-backed gauge series (see CounterFunc).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.fnSeries(name, help, KindGauge, fn, labelPairs)
}

// fnSeries installs one callback-backed series under (name, labelPairs).
func (r *Registry) fnSeries(name, help string, kind Kind, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q: label pairs must alternate key, value", name))
	}
	keys := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		keys = append(keys, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.family(name, help, kind, nil, keys)
	s := f.lookup(values, func() *series { return &series{} })
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// ---- histograms ----

// HistogramVec is a histogram family; With resolves one labelled series.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.lookup(values, func() *series {
		return &series{hist: newHistogram(f.buckets)}
	}).hist
}

// Histogram registers (idempotently) a histogram family with the given
// bucket upper bounds (nil means DefBuckets). Bounds must be strictly
// increasing; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing: %v", name, buckets))
		}
	}
	return &HistogramVec{f: r.family(name, help, KindHistogram, buckets, labels)}
}

// ---- reading the registry back ----

// Value returns the current value of one series ("" NaN-free: 0 when
// the family or series does not exist — absent metrics read as zero,
// which is what JSON health views want). For histograms it returns the
// observation count.
func (r *Registry) Value(name string, labelValues ...string) float64 {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	f.mu.RLock()
	s, ok := f.series[seriesKey(labelValues)]
	f.mu.RUnlock()
	if !ok {
		return 0
	}
	return s.value()
}

// value reads a series' current value (histograms: observation count).
func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.ctr != nil:
		return float64(s.ctr.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	case s.hist != nil:
		return float64(s.hist.Count())
	}
	return 0
}

// Snapshot flattens every series into a map keyed by the rendered
// series name (name{k="v",...}; histograms contribute _count and _sum).
// It is the machine-readable sibling of WritePrometheus, used by
// rcbench to embed telemetry in BENCH artifacts and by tests.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, f := range r.sortedFamilies() {
		f.mu.RLock()
		for _, s := range f.series {
			id := renderSeriesName(f.name, f.labels, s.values)
			if s.hist != nil {
				out[renderSeriesName(f.name+"_count", f.labels, s.values)] = float64(s.hist.Count())
				out[renderSeriesName(f.name+"_sum", f.labels, s.values)] = s.hist.Sum()
				continue
			}
			out[id] = s.value()
		}
		f.mu.RUnlock()
	}
	return out
}

// sortedFamilies returns the families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
