// Package load is the traffic engine behind cmd/rcload: a workload
// generator for rcserve that drives mixed GET/POST/batch traffic at a
// target rate and reports throughput plus tail latency (p50/p99/p999)
// from a fine-grained histogram. The same engine backs the CI smoke
// job, so the counters it provokes (coalescing, rate limiting) are
// scraped from a live server on every push.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcons/internal/atlas"
	"rcons/internal/obs"
	"rcons/internal/types"
)

// Options configures one load run.
type Options struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8372".
	BaseURL string
	// Duration bounds the run; ignored when Requests is set.
	Duration time.Duration
	// Requests, when > 0, is a fixed request budget instead of Duration.
	Requests int
	// RPS is the target request rate across all workers; 0 = unpaced
	// (as fast as Concurrency in-flight requests allow).
	RPS float64
	// Concurrency is the number of worker goroutines (default 8).
	Concurrency int
	// Workload selects the request mix: "mixed" (default) rotates over
	// GET classify, POST classify, batch, zoo and search; "single" sends
	// only one-type classify requests; "batch" only batch requests.
	Workload string
	// BatchSize is the items per batch request (default 100, capped to
	// the server's batch cap by the caller).
	BatchSize int
	// Types is the size of the generated type pool the workload draws
	// from (default 100): a mix of built-in names and seeded random
	// custom tables.
	Types int
	// Limit is the classification limit parameter (default 3).
	Limit int
	// Seed makes the pool and request sequence deterministic (default 1).
	Seed int64
	// Trace stamps every request with a client-minted trace ID
	// (X-RC-Trace), forcing the server to sample it into its flight
	// recorder, and reports the IDs of the slowest requests so they can
	// be pulled from GET /debug/requests/{trace} after the run.
	Trace bool
	// Client overrides the HTTP client (default: shared transport with
	// Concurrency idle connections).
	Client *http.Client
}

// WorstTrace pairs a slow request's trace ID with its client-observed
// latency; the ID keys into the server's /debug/requests/{trace}.
type WorstTrace struct {
	Trace   string  `json:"trace"`
	Seconds float64 `json:"seconds"`
}

// worstTraceCap bounds the slowest-request list in the report.
const worstTraceCap = 16

// Result is one finished run in rcload's JSON output shape.
type Result struct {
	Workload    string  `json:"workload"`
	Duration    float64 `json:"duration_seconds"`
	Requests    int64   `json:"requests"`
	Items       int64   `json:"items"`
	Errors      int64   `json:"errors"`
	Limited     int64   `json:"limited"`
	Shed        int64   `json:"shed"`
	Throughput  float64 `json:"requests_per_sec"`
	ItemsPerSec float64 `json:"items_per_sec"`
	P50         float64 `json:"p50_seconds"`
	P99         float64 `json:"p99_seconds"`
	P999        float64 `json:"p999_seconds"`
	// Worst lists the slowest requests' trace IDs (with -trace only),
	// slowest first — the handles to pull span trees off the server.
	Worst []WorstTrace `json:"p99_worst_traces,omitempty"`
}

// worstTracker keeps the top worstTraceCap slowest traces, sorted
// slowest-first, under a mutex shared by all workers.
type worstTracker struct {
	mu  sync.Mutex
	top []WorstTrace
}

func (w *worstTracker) note(trace string, secs float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.top) == worstTraceCap && secs <= w.top[len(w.top)-1].Seconds {
		return
	}
	i := sort.Search(len(w.top), func(i int) bool { return w.top[i].Seconds < secs })
	w.top = append(w.top, WorstTrace{})
	copy(w.top[i+1:], w.top[i:])
	w.top[i] = WorstTrace{Trace: trace, Seconds: secs}
	if len(w.top) > worstTraceCap {
		w.top = w.top[:worstTraceCap]
	}
}

// latencyBuckets resolve sub-millisecond local round trips: obs.DefBuckets
// start at 1ms, which would collapse an in-process p999 into one bucket.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// poolEntry is one classification target: a built-in name or a custom
// table (marshaled once, reused by every request that draws it).
type poolEntry struct {
	name  string
	table json.RawMessage
}

// buildPool generates n deterministic targets: built-in zoo types by
// name, then seeded random 3-state/2-op custom tables.
func buildPool(n int, seed int64) []poolEntry {
	var pool []poolEntry
	for _, t := range types.Zoo() {
		if len(pool) == n {
			return pool
		}
		// Parameterized display names ("queue(cap=4)") don't round-trip
		// through the name lookup; only pool the ones that do.
		if _, err := types.ByName(t.Name()); err != nil {
			continue
		}
		pool = append(pool, poolEntry{name: t.Name()})
	}
	rng := rand.New(rand.NewSource(seed))
	for len(pool) < n {
		t := atlas.Random(rng, 3, 2, 2)
		raw, err := json.Marshal(t.Custom())
		if err != nil {
			continue // a table that cannot marshal cannot be POSTed either
		}
		pool = append(pool, poolEntry{table: raw})
	}
	return pool
}

// request is one prepared unit of work.
type request struct {
	method string
	url    string
	body   []byte
	items  int64  // classifications this request asks for
	trace  string // client-minted trace ID (with Options.Trace only)
}

// planner produces the deterministic request sequence for a workload.
type planner struct {
	opts Options
	pool []poolEntry

	// bodies caches marshaled batch request bodies by pool offset: the
	// item rotation wraps modulo the pool, so at most len(pool) distinct
	// bodies exist and the (large) marshal runs once per offset instead
	// of once per request.
	mu     sync.Mutex
	bodies map[int][]byte
}

func (p *planner) plan(i int) request {
	switch p.opts.Workload {
	case "single":
		return p.single(i)
	case "batch":
		return p.batch(i)
	default: // mixed
		switch i % 5 {
		case 0, 1:
			return p.single(i)
		case 2:
			return p.batch(i)
		case 3:
			return request{method: http.MethodGet,
				url: p.opts.BaseURL + "/v1/zoo?limit=" + strconv.Itoa(p.opts.Limit), items: 1}
		default:
			return request{method: http.MethodGet,
				url: fmt.Sprintf("%s/v1/search?type=S_3&property=recording&n=%d", p.opts.BaseURL, p.opts.Limit), items: 1}
		}
	}
}

func (p *planner) single(i int) request {
	e := p.pool[i%len(p.pool)]
	if e.name != "" {
		return request{method: http.MethodGet,
			url:   fmt.Sprintf("%s/v1/classify?type=%s&limit=%d", p.opts.BaseURL, urlQueryEscape(e.name), p.opts.Limit),
			items: 1}
	}
	return request{method: http.MethodPost,
		url:   fmt.Sprintf("%s/v1/classify?limit=%d", p.opts.BaseURL, p.opts.Limit),
		body:  e.table,
		items: 1}
}

func (p *planner) batch(i int) request {
	offset := i % len(p.pool)
	p.mu.Lock()
	body, hit := p.bodies[offset]
	p.mu.Unlock()
	if !hit {
		items := make([]map[string]any, p.opts.BatchSize)
		for j := range items {
			e := p.pool[(offset+j)%len(p.pool)]
			if e.name != "" {
				items[j] = map[string]any{"type": e.name}
			} else {
				items[j] = map[string]any{"table": e.table}
			}
		}
		body, _ = json.Marshal(map[string]any{"limit": p.opts.Limit, "items": items})
		p.mu.Lock()
		if p.bodies == nil {
			p.bodies = make(map[int][]byte)
		}
		p.bodies[offset] = body
		p.mu.Unlock()
	}
	return request{method: http.MethodPost,
		url:   p.opts.BaseURL + "/v1/classify/batch",
		body:  body,
		items: int64(p.opts.BatchSize)}
}

// urlQueryEscape covers the one awkward built-in name ("compare&swap")
// without pulling in net/url for every request build.
func urlQueryEscape(s string) string {
	s = strings.ReplaceAll(s, "&", "%26")
	return strings.ReplaceAll(s, " ", "%20")
}

// normalized fills defaults.
func (o Options) normalized() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Workload == "" {
		o.Workload = "mixed"
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 100
	}
	if o.Types <= 0 {
		o.Types = 100
	}
	if o.Limit <= 0 {
		o.Limit = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Duration <= 0 && o.Requests <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        o.Concurrency,
			MaxIdleConnsPerHost: o.Concurrency,
		}}
	}
	return o
}

// Run drives the configured workload and reports the aggregate result.
// Requests that fail at the HTTP layer or return an unexpected status
// count as errors; 429 and 503 are tallied separately as limited/shed —
// expected outcomes when probing a rate-limited server, not failures.
func Run(ctx context.Context, opts Options) (*Result, error) {
	o := opts.normalized()
	switch o.Workload {
	case "mixed", "single", "batch":
	default:
		return nil, fmt.Errorf("unknown workload %q (want mixed, single or batch)", o.Workload)
	}
	if o.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL required")
	}
	p := &planner{opts: o, pool: buildPool(o.Types, o.Seed)}
	// Marshal every batch body the run can send before the clock starts,
	// so throughput measures serving, not the generator's own encoding.
	if o.Workload != "single" {
		n := len(p.pool)
		if o.Requests > 0 && o.Requests < n {
			n = o.Requests
		}
		for i := 0; i < n; i++ {
			p.batch(i)
		}
	}

	if o.Duration > 0 && o.Requests <= 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Duration)
		defer cancel()
	}

	// The pacer hands out send permissions at the target rate; without
	// -rps the channel is closed and workers free-run.
	var pace <-chan time.Time
	if o.RPS > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / o.RPS))
		defer t.Stop()
		pace = t.C
	}

	hist := obs.NewRegistry().
		Histogram("rcload_latency_seconds", "rcload request latency.", latencyBuckets).
		With()
	var requests, items, errors, limited, shed atomic.Int64
	var seq atomic.Int64
	var worst *worstTracker
	if o.Trace {
		worst = &worstTracker{}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				if o.Requests > 0 && i >= int64(o.Requests) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						return
					}
				}
				req := p.plan(int(i))
				if o.Trace {
					req.trace = obs.NewTraceID()
				}
				t0 := time.Now()
				status, gotItems, err := o.do(ctx, req)
				if ctx.Err() != nil {
					return // don't count the request we tore down
				}
				secs := time.Since(t0).Seconds()
				hist.Observe(secs)
				if worst != nil {
					worst.note(req.trace, secs)
				}
				requests.Add(1)
				switch {
				case err != nil:
					errors.Add(1)
				case status == http.StatusTooManyRequests:
					limited.Add(1)
				case status == http.StatusServiceUnavailable:
					shed.Add(1)
				case status != http.StatusOK:
					errors.Add(1)
				default:
					items.Add(gotItems)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Workload: o.Workload,
		Duration: elapsed.Seconds(),
		Requests: requests.Load(),
		Items:    items.Load(),
		Errors:   errors.Load(),
		Limited:  limited.Load(),
		Shed:     shed.Load(),
		P50:      hist.Quantile(0.50),
		P99:      hist.Quantile(0.99),
		P999:     hist.Quantile(0.999),
	}
	if worst != nil {
		res.Worst = worst.top
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.Throughput = float64(res.Requests) / secs
		res.ItemsPerSec = float64(res.Items) / secs
	}
	return res, nil
}

// do executes one planned request and extracts the served item count
// from the response ("count" for list payloads, "ok" for batches —
// failed batch items are not served classifications).
func (o Options) do(ctx context.Context, r request) (status int, items int64, err error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, r.url, body)
	if err != nil {
		return 0, 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.trace != "" {
		req.Header.Set(obs.TraceHeader, r.trace)
	}
	resp, err := o.Client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0, nil
	}
	items, err = envelopeItems(resp.Body)
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, items, err
}

// envelopeItems extracts the served item count from a 200 response
// ("ok" for batches — failed batch items are not served classifications
// — falling back to "count" for list payloads, else 1). rcserve emits
// those envelope fields before the payload arrays, so the scan stops at
// the first "items"/"results" key instead of parsing the (potentially
// hundreds-of-KB) bulk; the caller discards the rest unparsed.
func envelopeItems(body io.Reader) (int64, error) {
	dec := json.NewDecoder(body)
	tok, err := dec.Token()
	if err != nil {
		return 0, err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return 1, nil
	}
	var okCount, count *int64
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return 0, err
		}
		key, _ := keyTok.(string)
		if key == "items" || key == "results" {
			break
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return 0, err
		}
		if key == "ok" || key == "count" {
			if v, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
				if key == "ok" {
					okCount = &v
				} else {
					count = &v
				}
			}
		}
	}
	switch {
	case okCount != nil:
		return *okCount, nil
	case count != nil:
		return *count, nil
	default:
		return 1, nil
	}
}

// CoalesceProbe fires n concurrent identical GETs at url and verifies
// every 200 response carried a byte-identical body — the observable
// contract of rcserve's request coalescing. It returns the number of
// successful responses; err reports transport failures, non-200s, or a
// body mismatch.
func CoalesceProbe(ctx context.Context, client *http.Client, url string, n int) (int, error) {
	if client == nil {
		client = http.DefaultClient
	}
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("caller %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	okBodies := 0
	var first []byte
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return okBodies, errs[i]
		}
		if first == nil {
			first = bodies[i]
		} else if !bytes.Equal(first, bodies[i]) {
			return okBodies, fmt.Errorf("caller %d body differs from caller 0", i)
		}
		okBodies++
	}
	return okBodies, nil
}
