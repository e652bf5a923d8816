package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcons/internal/engine"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// ---- satellite regression: defaults must respect lowered caps ----

// TestBoundedParamDefaultClamped is the -max-limit 2 regression: an
// /v1/atlas request with NO limit parameter used to run at the endpoint
// default (3) even when the operator capped the server at 2 — absent
// parameters skipped the clamp that explicit ones went through.
func TestBoundedParamDefaultClamped(t *testing.T) {
	_, ts := testServer(t, "-max-limit", "2")

	var summary struct {
		Limit int `json:"limit"`
	}
	getJSON(t, ts.URL+"/v1/atlas?states=2&ops=2&resps=1&random=10&mutants=0", http.StatusOK, &summary)
	if summary.Limit != 2 {
		t.Fatalf("defaulted atlas limit = %d on a -max-limit 2 server, want 2", summary.Limit)
	}

	// An explicit limit above the cap is still rejected outright.
	resp, err := http.Get(ts.URL + "/v1/atlas?states=2&ops=2&resps=1&limit=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("explicit limit=3 on -max-limit 2 server = %d, want 400", resp.StatusCode)
	}
}

// ---- satellite regression: client cancel ≠ server deadline ----

// TestWriteEngineErrorSeparatesCancelFromDeadline pins the status and
// outcome mapping: a server-side deadline is a 503 capacity signal, a
// client disconnect is a 499 with its own outcome label; conflating
// them (the old behavior) made abandoned requests look like overload.
func TestWriteEngineErrorSeparatesCancelFromDeadline(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/zoo", nil)

	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	s.writeEngineError(sw, req, context.DeadlineExceeded)
	if rec.Code != http.StatusServiceUnavailable || sw.outcome != "deadline" {
		t.Fatalf("deadline: status=%d outcome=%q, want 503/deadline", rec.Code, sw.outcome)
	}

	rec = httptest.NewRecorder()
	sw = &statusWriter{ResponseWriter: rec}
	s.writeEngineError(sw, req, context.Canceled)
	if rec.Code != statusClientClosedRequest || sw.outcome != "cancelled" {
		t.Fatalf("cancel: status=%d outcome=%q, want 499/cancelled", rec.Code, sw.outcome)
	}
}

// TestClientCancelCounted drives the cancel path end to end: a client
// that abandons an expensive request must increment
// rc_http_client_cancelled_total, not the shed or deadline series.
func TestClientCancelCounted(t *testing.T) {
	s, ts := testServer(t)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/zoo?limit=6", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	// Cancel once the scan is in flight. A fixed sleep raced the scan,
	// which can finish first on a fast engine.
	for deadline := time.Now().Add(5 * time.Second); !s.flights.Pending("/v1/zoo|6"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the zoo scan never started")
		}
	}
	cancel()
	<-done

	// The handler finishes (and the counter lands) asynchronously after
	// the client goroutine returns; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.reg.Value("rc_http_client_cancelled_total", "/v1/zoo") >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("rc_http_client_cancelled_total{/v1/zoo} never incremented after a client cancel")
}

// ---- satellite regression: every classification carries its identity ----

// TestZooCanonicalFingerprints: /v1/zoo responses used to omit
// canonicalFingerprint; now every entry must carry one (the encoders all
// flow through encodeClassificationWithFP).
func TestZooCanonicalFingerprints(t *testing.T) {
	_, ts := testServer(t)
	var zoo struct {
		Results []classificationJSON `json:"results"`
	}
	getJSON(t, ts.URL+"/v1/zoo?limit=3", http.StatusOK, &zoo)
	if len(zoo.Results) == 0 {
		t.Fatal("empty zoo")
	}
	// Every zoo entry whose type is canonicalizable must carry the
	// fingerprint (a few built-ins, e.g. read-only, have no finite
	// canonical form and legitimately serve an empty one).
	zooTypes := types.Zoo()
	if len(zooTypes) != len(zoo.Results) {
		t.Fatalf("served %d results for %d zoo types", len(zoo.Results), len(zooTypes))
	}
	stamped := 0
	for i, c := range zoo.Results {
		want, _ := engine.CanonicalFingerprint(zooTypes[i], 3)
		if c.CanonicalFingerprint != want {
			t.Fatalf("zoo entry %q canonicalFingerprint = %q, want %q",
				c.Type, c.CanonicalFingerprint, want)
		}
		if want != "" {
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatal("no zoo entry carries a canonical fingerprint")
	}
}

// ---- batch classification ----

// TestClassifyBatch exercises the bulk endpoint: built-in names and
// custom tables mixed, per-item errors isolated, fingerprints present,
// and each item equal to its single-request counterpart.
func TestClassifyBatch(t *testing.T) {
	_, ts := testServer(t)

	body := `{"limit": 3, "items": [
		{"type": "S_3"},
		{"type": "no-such-type"},
		{"table": {"name":"custom","initial":["q0"],"transitions":{
			"q0":{"op":{"next":"q1","resp":"a"}},
			"q1":{"op":{"next":"q1","resp":"b"}}}}},
		{},
		{"type": "cas"}
	]}`
	var out struct {
		Limit int           `json:"limit"`
		Count int           `json:"count"`
		OK    int           `json:"ok"`
		Items []batchResult `json:"items"`
	}
	resp, err := http.Post(ts.URL+"/v1/classify/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch = %d: %s", resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 5 || out.OK != 3 {
		t.Fatalf("count/ok = %d/%d, want 5/3", out.Count, out.OK)
	}
	for i, want := range []bool{true, false, true, false, true} {
		if out.Items[i].OK != want {
			t.Fatalf("item %d ok = %v, want %v (err %q)", i, out.Items[i].OK, want, out.Items[i].Error)
		}
	}
	if out.Items[1].Error == "" || out.Items[3].Error == "" {
		t.Fatal("failed items missing error messages")
	}
	for _, i := range []int{0, 2, 4} {
		var c classificationJSON
		if err := json.Unmarshal(out.Items[i].Classification, &c); err != nil {
			t.Fatalf("item %d classification: %v", i, err)
		}
		if c.CanonicalFingerprint == "" {
			t.Fatalf("item %d missing canonicalFingerprint", i)
		}
	}

	// Batch results match the single-request endpoint exactly (compare
	// re-encoded JSON: the structs hold witness pointers).
	var solo classificationJSON
	getJSON(t, ts.URL+"/v1/classify?type=S_3&limit=3", http.StatusOK, &solo)
	gotJSON, _ := json.Marshal(out.Items[0].Classification)
	soloJSON, _ := json.Marshal(solo)
	if string(gotJSON) != string(soloJSON) {
		t.Fatalf("batch S_3 diverges from /v1/classify:\n%s\n%s", gotJSON, soloJSON)
	}
}

// TestClassifyBatchRequestErrors sweeps the request-level rejections:
// they must fail the whole batch with 400, before any engine work.
func TestClassifyBatchRequestErrors(t *testing.T) {
	_, ts := testServer(t)

	capFull := `{"items": [` + strings.Repeat(`{"type":"S_3"},`, batchMaxItems)
	for name, body := range map[string]string{
		"malformed":     `{not json`,
		"empty items":   `{"items": []}`,
		"no items":      `{"limit": 3}`,
		"limit too big": `{"limit": 99, "items": [{"type":"S_3"}]}`,
		"limit too low": `{"limit": 1, "items": [{"type":"S_3"}]}`,
		"limit 3.0":     `{"limit": 3.0, "items": [{"type":"S_3"}]}`,
		"over item cap": capFull + `{"type":"S_3"}]}`,
		// The read stops at item batchMaxItems+1: what follows is
		// never looked at, so the cap, not the syntax, is reported.
		"over item cap, then malformed": capFull + `{"type":"S_3"}, {not json`,
		"type and table":                `{"items": [{"type":"S_3","table":{}}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/classify/batch", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if name == "type and table" {
				// Item-level problem: the batch succeeds, the item fails.
				var out struct {
					Items []batchResult `json:"items"`
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("batch = %d, want 200", resp.StatusCode)
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				if len(out.Items) != 1 || out.Items[0].OK || out.Items[0].Error == "" {
					t.Fatalf("ambiguous item not rejected per-item: %+v", out.Items)
				}
				return
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("batch %q = %d, want 400", name, resp.StatusCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if over := strings.HasPrefix(name, "over item cap"); over != strings.Contains(e.Error, "cap of "+strconv.Itoa(batchMaxItems)) {
				t.Fatalf("batch %q: error %q", name, e.Error)
			}
		})
	}
}

// TestClassifyBatchMemo pins the item memo's key: a table's bytes as
// the client sent them, whitespace and newlines included. A repeated
// batch is answered byte for byte from the memo without parsing any
// table, and so is a single POST of one of its tables' bytes.
func TestClassifyBatchMemo(t *testing.T) {
	cfg, err := parseFlags([]string{"-workers", "4", "-log-level", "error"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var parses atomic.Int64
	s.parseTable = func(b []byte) (spec.Type, error) {
		parses.Add(1)
		return types.NewCustomFromJSON(b)
	}
	ts := startTestServer(t, s)

	tables := []string{
		"{ \"name\": \"a\",\n  \"initial\": [\"q0\"],\n  \"transitions\": {\"q0\": {\"op\": {\"next\": \"q1\", \"resp\": \"x\"}},\n                  \"q1\": {\"op\": {\"next\": \"q1\", \"resp\": \"y\"}}}\n}",
		"{\"name\":\"b\",\t\"initial\":[\"q0\"],\r\n\"transitions\":{\"q0\":{\"op\":{\"next\":\"q0\",\"resp\":\"x\"}}}}",
	}
	body := "{\"limit\": 3, \"items\": [\n  {\"type\": \"S_3\"},\n  {\"table\": " + tables[0] + "},\n  {\"table\":" + tables[1] + "  }\n]}"
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, out)
		}
		return out
	}

	first := post("/v1/classify/batch", body)
	if n := parses.Load(); n != int64(len(tables)) {
		t.Fatalf("first batch parsed %d tables, want %d", n, len(tables))
	}
	if second := post("/v1/classify/batch", body); !bytes.Equal(second, first) {
		t.Fatalf("repeated batch differs:\n%s\n%s", first, second)
	}
	post("/v1/classify?limit=3", tables[0])
	if n := parses.Load(); n != int64(len(tables)) {
		t.Fatalf("repeats parsed %d more tables, want 0", n-int64(len(tables)))
	}
}

// ---- coalescing ----

// TestCoalescedResponsesByteIdentical fires concurrent identical cold
// requests and checks (a) every response body is byte-identical and
// (b) at least one was served from the leader's shared payload
// (rc_http_coalesced_total > 0).
func TestCoalescedResponsesByteIdentical(t *testing.T) {
	s, ts := testServer(t)

	const callers = 8
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/zoo?limit=5")
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("caller %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("caller %d body differs from caller 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if n := s.reg.Value("rc_http_coalesced_total", "/v1/zoo"); n < 1 {
		t.Fatalf("rc_http_coalesced_total{/v1/zoo} = %v, want ≥ 1", n)
	}
}

// TestAtlasLeaderFailureFollowersRecompute is the serve-level leader-
// failure test: a leader whose client disconnects mid-census must not
// hang followers, poison them with its error, or cache anything — the
// follower recomputes under its own context and succeeds.
func TestAtlasLeaderFailureFollowersRecompute(t *testing.T) {
	_, ts := testServer(t)
	const path = "/v1/atlas?states=2&ops=2&resps=1&random=300&mutants=0&limit=3"

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(30 * time.Millisecond) // leader's census is in flight

	followerStatus := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			followerStatus <- 0
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		followerStatus <- resp.StatusCode
	}()
	time.Sleep(30 * time.Millisecond) // follower is parked on the leader
	leaderCancel()
	<-leaderDone

	select {
	case status := <-followerStatus:
		if status != http.StatusOK {
			t.Fatalf("follower after leader cancel = %d, want 200", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follower hung after leader failure")
	}

	// Nothing poisonous was cached: a fresh request succeeds too.
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failure request = %d, want 200", resp.StatusCode)
	}
}

// ---- rate limiting ----

// TestRateLimiterBucket unit-tests the token bucket against a fake
// clock: burst spends, refill restores, and the Retry-After hint is
// positive when empty.
func TestRateLimiterBucket(t *testing.T) {
	now := time.Unix(0, 0)
	l := newRateLimiter(2, 3) // 2 tokens/s, burst 3
	l.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := l.allow("c")
	if ok {
		t.Fatal("4th immediate request allowed past burst 3")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint = %v, want (0, 1s] at 2 tokens/s", retry)
	}

	now = now.Add(time.Second) // refills 2 tokens
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("request after refill rejected")
	}
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("second request after refill rejected")
	}
	if ok, _ := l.allow("c"); ok {
		t.Fatal("third request after 1s refill allowed (only 2 tokens refilled)")
	}

	// Distinct clients have independent buckets.
	if ok, _ := l.allow("other"); !ok {
		t.Fatal("fresh client rejected while another is limited")
	}
}

// TestRateLimitEndToEnd runs a -rate server: past the burst the client
// gets 429 with a Retry-After hint, the "limited" counter increments,
// and unlimited routes (/healthz, /metrics) stay reachable.
func TestRateLimitEndToEnd(t *testing.T) {
	s, ts := testServer(t, "-rate", "0.5", "-burst", "2")

	var got429 int
	var retryAfter string
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/mc/targets")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			got429++
			retryAfter = resp.Header.Get("Retry-After")
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d", i, resp.StatusCode)
		}
	}
	if got429 == 0 {
		t.Fatal("5 rapid requests at burst 2 never hit 429")
	}
	if v, err := strconv.Atoi(retryAfter); err != nil || v < 1 {
		t.Fatalf("Retry-After = %q, want an integer ≥ 1", retryAfter)
	}
	if n := s.reg.Value("rc_http_rate_limited_total", "/v1/mc/targets"); int(n) != got429 {
		t.Fatalf("rc_http_rate_limited_total = %v, want %d", n, got429)
	}

	// Probes and scrapes bypass the limiter.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while limited = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestRateLimitFlagValidation: nonsense flag combinations must be
// rejected at startup, not silently accepted.
func TestRateLimitFlagValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-rate", "-1"}); err == nil {
		t.Fatal("negative -rate accepted")
	}
	if _, err := parseFlags([]string{"-rate", "5", "-burst", "0"}); err == nil {
		t.Fatal("-burst 0 with -rate accepted")
	}
	if _, err := parseFlags([]string{"-burst", "0"}); err != nil {
		t.Fatalf("-burst without -rate should be ignored: %v", err)
	}
}
