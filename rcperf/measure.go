package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"rcons/internal/atlas"
)

// limit is the classification limit every workload uses (n = 2..3).
const limit = 3

// sizes fixes how much work each phase does. fullSizes is the
// benchmark; the self-test runs tinySizes.
type sizes struct {
	setupReps    int          // set-ups per run of serve-warm, census-cold and mc-safe
	pool         int          // serve-warm type pool
	batch        int          // items per batch request
	coldTables   int          // distinct tables per serve-cold round
	censusBounds atlas.Bounds // census-cold exhaustive block
	censusRandom int          // census-cold seeded random tables
	censusSample int          // census rows re-derived by the interpreted engine
	warmTraced   int          // requests per serve-warm phase of the traced pass
	storeTables  int          // tables replayed through the store
	simExecs     int          // seeded executions per mc target
	checkEvery   int          // 1 in checkEvery serve responses gets a full answer check
	// censusDigests are the expected census artifact digests at these
	// sizes, by seed.
	censusDigests map[int64]string
}

var fullSizes = sizes{
	setupReps:     5,
	pool:          100,
	batch:         50,
	coldTables:    4000,
	censusBounds:  atlas.Bounds{States: 3, Ops: 2, Resps: 2},
	censusRandom:  300,
	censusSample:  200,
	warmTraced:    20000,
	storeTables:   1000,
	simExecs:      200,
	checkEvery:    16,
	censusDigests: censusDigests,
}

var tinySizes = sizes{
	setupReps:    2,
	pool:         30,
	batch:        10,
	coldTables:   60,
	censusBounds: atlas.Bounds{States: 2, Ops: 2, Resps: 2},
	censusRandom: 10,
	censusSample: 6,
	warmTraced:   100,
	storeTables:  30,
	simExecs:     5,
	checkEvery:   4,
}

// clients is the closed-loop client count of the serve workloads: one
// per CPU, so load comes from as many callers as the machine can run.
func clients() int { return max(1, runtime.GOMAXPROCS(0)) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty slice). xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tailQ is the highest percentile, capped at p99, with at least ten
// samples beyond it; never below the median.
func tailQ(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	return min(0.99, max(0.5, 1-10/float64(n)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// setupMedian logs every set-up time of the run and returns their median.
func setupMedian(e *env, setups []float64) float64 {
	fmt.Fprintf(e.log, "rcperf: set-ups %.4v s\n", setups)
	return median(setups)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencySummary sets latency_p50_ms and latency_tail_ms from samples
// in milliseconds and returns the tail quantile used.
func latencySummary(m metricSet, lat []float64) float64 {
	q := tailQ(len(lat))
	m.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	m.set("latency_tail_ms", quantile(lat, q), "ms")
	return q
}

// heapSampler records the highest Go heap-in-use (bytes of live and
// not-yet-swept heap objects) while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// heapSampleEvery is the sampling period; reading runtime/metrics does
// not stop the world, so a short period costs little.
const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// windowRate is the median over the full windows of completions per
// second; with fewer than three full windows it is the overall rate.
func windowRate(counts []int64, window time.Duration, total int64, elapsed time.Duration) float64 {
	if len(counts) >= 3 {
		rates := make([]float64, len(counts))
		for i, c := range counts {
			rates[i] = float64(c) / window.Seconds()
		}
		return median(rates)
	}
	return float64(total) / elapsed.Seconds()
}

// windowFor splits a measured phase of length d into ten windows of at
// least 100ms.
func windowFor(d time.Duration) time.Duration {
	return max(d/10, 100*time.Millisecond)
}
