package obs

import (
	"math"
	"testing"
)

// TestHistogramBuckets checks the bucket assignment rule: an
// observation lands in the first bucket whose upper bound is >= the
// value (Prometheus "le" semantics), with values above every bound in
// the implicit +Inf bucket.
func TestHistogramBuckets(t *testing.T) {
	bounds := []float64{1, 5, 10}
	cases := []struct {
		v    float64
		want int // bucket index; 3 = +Inf
	}{
		{0, 0},
		{0.5, 0},
		{1, 0}, // on the bound: le semantics include it
		{1.001, 1},
		{5, 1},
		{7, 2},
		{10, 2},
		{10.1, 3},
		{1e9, 3},
		{-3, 0}, // below every bound: lowest bucket
	}
	for _, c := range cases {
		h := newHistogram(bounds)
		h.Observe(c.v)
		counts, _, total := h.snapshot()
		if total != 1 {
			t.Fatalf("Observe(%v): total = %d", c.v, total)
		}
		for i, n := range counts {
			want := int64(0)
			if i == c.want {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", c.v, i, n, want)
			}
		}
	}
}

func TestHistogramSumCount(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 3, 0.25} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if got := h.Sum(); math.Abs(got-5.25) > 1e-12 {
		t.Fatalf("Sum = %v, want 5.25", got)
	}
}

// TestHistogramQuantile pins the linear-interpolation estimate against
// hand-computed values.
func TestHistogramQuantile(t *testing.T) {
	cases := []struct {
		name   string
		bounds []float64
		obs    []float64
		q      float64
		want   float64
	}{
		{
			// 10 observations spread uniformly in (0,1]: the median rank 5
			// falls in bucket (0,1] with all 10 → interpolate 0 + 1*(5/10).
			name:   "uniform single bucket",
			bounds: []float64{1, 2},
			obs:    []float64{.1, .2, .3, .4, .5, .6, .7, .8, .9, 1},
			q:      0.5,
			want:   0.5,
		},
		{
			// 4 obs in (0,1], 4 in (1,2]. p75 rank=6 is 2nd of 4 in the
			// second bucket: 1 + (2-1)*(6-4)/4 = 1.5.
			name:   "two buckets p75",
			bounds: []float64{1, 2},
			obs:    []float64{.5, .5, .5, .5, 1.5, 1.5, 1.5, 1.5},
			q:      0.75,
			want:   1.5,
		},
		{
			// Everything in the +Inf bucket: estimate clamps to the highest
			// finite bound.
			name:   "overflow clamps",
			bounds: []float64{1, 2},
			obs:    []float64{5, 6, 7},
			q:      0.5,
			want:   2,
		},
		{
			name:   "q0 lower edge",
			bounds: []float64{1, 2},
			obs:    []float64{.5, 1.5},
			q:      0,
			want:   0,
		},
		{
			name:   "q1 upper edge",
			bounds: []float64{1, 2},
			obs:    []float64{.5, 1.5},
			q:      1,
			want:   2,
		},
		{
			// p99 with 100 obs in (0,1]: 0 + 1*(99/100).
			name:   "p99 interpolation",
			bounds: []float64{1},
			obs:    repeat(0.5, 100),
			q:      0.99,
			want:   0.99,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHistogram(c.bounds)
			for _, v := range c.obs {
				h.Observe(v)
			}
			if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
				t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
			}
		})
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := newHistogram([]float64{1})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty Quantile = %v, want NaN", got)
	}
}

func TestHistogramQuantileClampsQ(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(0.5)
	if got := h.Quantile(-1); got != 0 {
		t.Fatalf("Quantile(-1) = %v, want 0", got)
	}
	if got := h.Quantile(2); got != 1 {
		t.Fatalf("Quantile(2) = %v, want 1", got)
	}
}

func TestHistogramDefBucketsIncreasing(t *testing.T) {
	for _, bs := range [][]float64{DefBuckets, SizeBuckets} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("buckets not strictly increasing at %d: %v", i, bs)
			}
		}
	}
}

func TestHistogramBadBucketsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets must panic")
		}
	}()
	r.Histogram("rc_bad", "", []float64{1, 1})
}
