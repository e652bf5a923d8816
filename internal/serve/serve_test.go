package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"rcons/internal/checker"
	"rcons/internal/spec"
	"rcons/internal/types"
)

func testServer(t *testing.T, extraFlags ...string) (*Server, *httptest.Server) {
	t.Helper()
	// -log-level error keeps per-request access logs out of test output
	// (job polls alone would emit thousands of lines).
	cfg, err := parseFlags(append([]string{"-workers", "4", "-max-limit", "6", "-log-level", "error"}, extraFlags...))
	if err != nil {
		t.Fatal(err)
	}
	return testServerFromConfig(t, cfg)
}

func testServerFromConfig(t *testing.T, cfg config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, startTestServer(t, s)
}

// startTestServer serves s over httptest until the test ends, then
// drains its jobs.
func startTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.drainJobs(ctx)
	})
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("GET %s = %d (want %d): %v", url, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

// TestClassifyEndToEnd is the acceptance check: /v1/classify?type=S_3
// must return exactly the bands the CLI derives via checker.Classify.
func TestClassifyEndToEnd(t *testing.T) {
	_, ts := testServer(t)
	var got classificationJSON
	getJSON(t, ts.URL+"/v1/classify?type=S_3&limit=5", http.StatusOK, &got)

	want, err := checker.Classify(mustType(t, "S_3"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.TypeName || got.Readable != want.Readable {
		t.Fatalf("identity mismatch: %+v vs %+v", got, want)
	}
	if got.Cons.Display != want.ConsBand() || got.Rcons.Display != want.RconsBand() {
		t.Fatalf("bands: served cons=%q rcons=%q, CLI cons=%q rcons=%q",
			got.Cons.Display, got.Rcons.Display, want.ConsBand(), want.RconsBand())
	}
	if got.Cons.Display != "3" || got.Rcons.Display != "3" {
		t.Fatalf("rcons(S_3) should serve band 3/3, got cons=%q rcons=%q",
			got.Cons.Display, got.Rcons.Display)
	}
	if got.Recording.Display != want.Recording.String() ||
		got.Discerning.Display != want.Discerning.String() {
		t.Fatalf("levels: %+v vs %+v", got, want)
	}
	if got.Recording.Witness == nil || got.Recording.Witness.Q0 == "" {
		t.Fatal("recording witness missing from response")
	}
}

// TestClassifyUnboundedBand checks the null-Hi encoding on a type whose
// scan hits the limit (compare&swap).
func TestClassifyUnboundedBand(t *testing.T) {
	_, ts := testServer(t)
	var got classificationJSON
	getJSON(t, ts.URL+"/v1/classify?type=cas&limit=4", http.StatusOK, &got)
	if got.Cons.Hi != nil || got.Rcons.Hi != nil {
		t.Fatalf("cas bands should be unbounded: %+v", got)
	}
	if !strings.HasPrefix(got.Cons.Display, "≥") {
		t.Fatalf("cas cons display = %q", got.Cons.Display)
	}
}

func TestClassifyCustomSpec(t *testing.T) {
	_, ts := testServer(t)
	body, err := os.ReadFile("../../testdata/sticky.json")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/classify?limit=3", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST custom spec: %d", resp.StatusCode)
	}
	var got classificationJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Type != "sticky-json" {
		t.Fatalf("custom type name = %q", got.Type)
	}
	// The JSON table is a 2-value sticky register: consensus number ∞.
	if got.Cons.Hi != nil {
		t.Fatalf("sticky table should classify unbounded, got %+v", got.Cons)
	}

	bad, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(`{"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid table accepted: %d", bad.StatusCode)
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var got struct {
		Type     string       `json:"type"`
		Property string       `json:"property"`
		N        int          `json:"n"`
		Found    bool         `json:"found"`
		Witness  *witnessJSON `json:"witness"`
	}
	getJSON(t, ts.URL+"/v1/search?type=S_3&property=recording&n=3", http.StatusOK, &got)
	if !got.Found || got.Witness == nil || len(got.Witness.Teams) != 3 {
		t.Fatalf("S_3 3-recording search: %+v", got)
	}
	getJSON(t, ts.URL+"/v1/search?type=S_3&property=recording&n=4", http.StatusOK, &got)
	if got.Found || got.Witness != nil {
		t.Fatalf("S_3 4-recording should not be found: %+v", got)
	}
}

func TestZooEndpoint(t *testing.T) {
	s, ts := testServer(t)
	var got struct {
		Limit   int                  `json:"limit"`
		Count   int                  `json:"count"`
		Results []classificationJSON `json:"results"`
	}
	getJSON(t, ts.URL+"/v1/zoo?limit=3", http.StatusOK, &got)
	if got.Count != len(types.Zoo()) || len(got.Results) != got.Count {
		t.Fatalf("zoo count = %d, want %d", got.Count, len(types.Zoo()))
	}
	if got.Results[0].Type != types.Zoo()[0].Name() {
		t.Fatalf("zoo order: first is %q", got.Results[0].Type)
	}
	// A second scan must be served from the response memo: no new
	// classifications.
	before := s.eng.Stats().Classifications
	if before != int64(len(types.Zoo())) {
		t.Fatalf("cold zoo scan made %d classifications, want %d", before, len(types.Zoo()))
	}
	getJSON(t, ts.URL+"/v1/zoo?limit=3", http.StatusOK, &got)
	if after := s.eng.Stats().Classifications; after != before {
		t.Fatalf("repeated zoo scan recomputed instead of hitting the response memo (classifications %d → %d)", before, after)
	}
}

func TestRequestLimits(t *testing.T) {
	s, ts := testServer(t)
	getJSON(t, ts.URL+"/v1/classify?type=S_3&limit=99", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/classify?type=S_3&limit=x", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/classify?type=nope", http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/classify", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/search?type=S_3&property=bogus&n=3", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/v1/search?property=recording", http.StatusBadRequest, nil)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/zoo", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/zoo = %d", resp.StatusCode)
	}

	// Load shedding: with every in-flight slot occupied, requests get 503.
	for i := 0; i < cap(s.inflight); i++ {
		s.inflight <- struct{}{}
	}
	getJSON(t, ts.URL+"/v1/classify?type=S_3", http.StatusServiceUnavailable, nil)
	for i := 0; i < cap(s.inflight); i++ {
		<-s.inflight
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	var got struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &got)
	if got.Status != "ok" || got.Workers != 4 {
		t.Fatalf("healthz: %+v", got)
	}
}

func TestParseFlagErrors(t *testing.T) {
	if _, err := parseFlags([]string{"-max-limit", "1"}); err == nil {
		t.Error("max-limit 1 accepted")
	}
	if _, err := parseFlags([]string{"-max-inflight", "0"}); err == nil {
		t.Error("max-inflight 0 accepted")
	}
	if _, err := parseFlags([]string{"-badflag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func mustType(t *testing.T, name string) spec.Type {
	t.Helper()
	typ, err := types.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return typ
}
