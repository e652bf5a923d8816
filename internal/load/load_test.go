package load

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rcons/internal/obs"
	"rcons/internal/serve"
)

// testServer runs the real rcserve handler in-process — the load
// generator's results against it are the same code path CI probes over
// a socket.
func testServer(t *testing.T, flags ...string) *httptest.Server {
	t.Helper()
	s, err := serve.NewFromFlags(append([]string{"-workers", "4", "-log-level", "error"}, flags...)...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return ts
}

func TestBuildPool(t *testing.T) {
	pool := buildPool(100, 1)
	if len(pool) != 100 {
		t.Fatalf("pool size = %d, want 100", len(pool))
	}
	names, tables := 0, 0
	for _, e := range pool {
		if e.name != "" {
			names++
		}
		if e.table != nil {
			tables++
		}
	}
	if names == 0 || tables == 0 {
		t.Fatalf("pool should mix built-ins and custom tables: %d names, %d tables", names, tables)
	}
	// Determinism: the same seed rebuilds the same pool.
	again := buildPool(100, 1)
	for i := range pool {
		if pool[i].name != again[i].name || string(pool[i].table) != string(again[i].table) {
			t.Fatalf("pool entry %d differs across identical seeds", i)
		}
	}
}

// TestRunMixedWorkload drives the full mixed workload at a fixed
// request budget: every request must succeed and the latency quantiles
// must be populated.
func TestRunMixedWorkload(t *testing.T) {
	ts := testServer(t)
	res, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Requests:    40,
		Concurrency: 4,
		Workload:    "mixed",
		Types:       20,
		BatchSize:   10,
		Limit:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 40 {
		t.Fatalf("requests = %d, want 40", res.Requests)
	}
	if res.Errors != 0 || res.Limited != 0 || res.Shed != 0 {
		t.Fatalf("unexpected failures: %+v", res)
	}
	if res.Items < res.Requests {
		t.Fatalf("items = %d < requests = %d (batches should add more)", res.Items, res.Requests)
	}
	if res.Throughput <= 0 || res.ItemsPerSec <= 0 {
		t.Fatalf("zero throughput: %+v", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Fatalf("quantiles not monotone: p50=%g p99=%g p999=%g", res.P50, res.P99, res.P999)
	}
}

// TestBatchRoundTrips pins what batching guarantees, whatever the
// machine's speed: on a 100-type mixed pool, a /v1/classify/batch
// request serves all 100 items in one round trip where single traffic
// needs one per item; a cold batch derives one engine classification
// per item; and once a batch has filled the response memo, neither
// batch nor single requests for the same types classify again. Every
// phase runs at concurrency 1, one client working through a type
// collection.
func TestBatchRoundTrips(t *testing.T) {
	ts := testServer(t)
	const types = 100
	base := Options{
		BaseURL:     ts.URL,
		Concurrency: 1,
		Types:       types,
		BatchSize:   types,
		Limit:       3,
	}
	phase := func(workload string, requests int) (res *Result, classified int64) {
		t.Helper()
		before := classifications(t, ts.URL)
		o := base
		o.Workload, o.Requests = workload, requests
		res, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 || res.Limited != 0 || res.Shed != 0 {
			t.Fatalf("%s phase failures: %+v", workload, res)
		}
		return res, classifications(t, ts.URL) - before
	}

	cold, coldClassified := phase("batch", 1)
	if cold.Items != types || coldClassified != types {
		t.Fatalf("cold batch: %d items served, %d classifications, want %d each", cold.Items, coldClassified, types)
	}
	batch, batchClassified := phase("batch", 5)
	if batch.Requests != 5 || batch.Items != 5*types {
		t.Fatalf("warm batches: %d items in %d round trips, want %d in 5", batch.Items, batch.Requests, 5*types)
	}
	single, singleClassified := phase("single", 2*types)
	if single.Requests != 2*types || single.Items != single.Requests {
		t.Fatalf("single requests: %d items in %d round trips, want one item per round trip", single.Items, single.Requests)
	}
	if batchClassified != 0 || singleClassified != 0 {
		t.Fatalf("warm requests classified again: %d in batches, %d in singles, want 0", batchClassified, singleClassified)
	}
}

// classifications reads the server's engine classification count off
// /healthz.
func classifications(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Cache struct {
			Classifications int64 `json:"classifications"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	return health.Cache.Classifications
}

// TestRPSPacing: the pacer must hold request volume near the target
// rate rather than free-running.
func TestRPSPacing(t *testing.T) {
	ts := testServer(t)
	res, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Duration:    500 * time.Millisecond,
		RPS:         20,
		Concurrency: 4,
		Workload:    "single",
		Types:       5,
		Limit:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~10 ticks fire in 500ms at 20/s; allow generous scheduling slop
	// but catch free-running (hundreds of requests).
	if res.Requests < 2 || res.Requests > 20 {
		t.Fatalf("paced run sent %d requests in 500ms at 20 rps", res.Requests)
	}
}

// TestCoalesceProbe: concurrent identical cold zoo requests against the
// real server must come back byte-identical.
func TestCoalesceProbe(t *testing.T) {
	ts := testServer(t)
	n, err := CoalesceProbe(context.Background(), nil, ts.URL+"/v1/zoo?limit=4", 6)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("probe ok = %d, want 6", n)
	}
}

// TestRateLimitedRun: against a tightly limited server the generator
// must classify 429s as "limited", not errors.
func TestRateLimitedRun(t *testing.T) {
	ts := testServer(t, "-rate", "1", "-burst", "2")
	res, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Requests:    20,
		Concurrency: 4,
		Workload:    "single",
		Types:       5,
		Limit:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Limited == 0 {
		t.Fatalf("20 rapid requests at 1 rps burst 2 produced no 429s: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("429s misclassified as errors: %+v", res)
	}
}

// TestRunWithTrace stamps every request with a client-minted trace ID
// and checks the contract end to end: the report lists the slowest
// requests' IDs (sorted, bounded, well-formed) and the server's flight
// recorder can serve the span tree for the very worst one.
func TestRunWithTrace(t *testing.T) {
	ts := testServer(t)
	res, err := Run(context.Background(), Options{
		BaseURL:     ts.URL,
		Requests:    30,
		Concurrency: 4,
		Workload:    "single",
		Trace:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d request errors", res.Errors)
	}
	if len(res.Worst) == 0 || len(res.Worst) > worstTraceCap {
		t.Fatalf("worst traces = %d, want 1..%d", len(res.Worst), worstTraceCap)
	}
	for i, wt := range res.Worst {
		if !obs.ValidTraceID(wt.Trace) {
			t.Errorf("worst[%d] trace %q not a valid trace ID", i, wt.Trace)
		}
		if i > 0 && wt.Seconds > res.Worst[i-1].Seconds {
			t.Errorf("worst list not sorted slowest-first at %d", i)
		}
	}

	// The client-minted ID forced sampling server-side: the recorder
	// must hold the worst request's span tree.
	resp, err := http.Get(ts.URL + "/debug/requests/" + res.Worst[0].Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests/%s = %d, want 200", res.Worst[0].Trace, resp.StatusCode)
	}
}
