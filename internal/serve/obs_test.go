package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"rcons/internal/engine"
	"rcons/internal/jobs"
)

// TestMetricsEndpoint drives real traffic through the server and then
// checks /metrics: exposition content type, the http series the
// middleware maintains, and the func-backed engine series.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)

	getJSON(t, ts.URL+"/v1/classify?type=S_3&limit=4", http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/classify?type=S_3&limit=4", http.StatusOK, nil)
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`rc_http_requests_total{method="GET",path="/v1/classify",code="200"} 2`,
		`rc_http_requests_total{method="GET",path="/healthz",code="200"} 1`,
		"# TYPE rc_http_request_duration_seconds histogram",
		`rc_http_request_duration_seconds_count{path="/v1/classify"} 2`,
		"rc_http_in_flight 0",
		"# TYPE rc_engine_classifications_total counter",
		"rc_engine_classifications_total 1",
		"rc_jobs_done_total 0",
		"rc_jobs_workers 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHealthzMatchesMetrics asserts the tentpole's single-source-of-
// truth property: the counters /healthz reports are exactly the values
// the registry serves on /metrics, because both read the same
// func-backed series.
func TestHealthzMatchesMetrics(t *testing.T) {
	s, ts := testServer(t)

	// Generate some engine traffic so the counters are non-zero.
	getJSON(t, ts.URL+"/v1/classify?type=S_3&limit=4", http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/classify?type=S_3&limit=4", http.StatusOK, nil)

	var health struct {
		Cache engine.CacheStats `json:"cache"`
		Jobs  jobs.Stats        `json:"jobs"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	// The repeat is served from the response memo: one classification.
	if health.Cache.Classifications != 1 {
		t.Fatalf("healthz classifications = %d after one distinct classification, want 1", health.Cache.Classifications)
	}

	if got := int64(s.reg.Value("rc_engine_classifications_total")); got != health.Cache.Classifications {
		t.Errorf("registry classifications %d != healthz classifications %d", got, health.Cache.Classifications)
	}
	if got := int(s.reg.Value("rc_jobs_workers")); got != health.Jobs.Workers {
		t.Errorf("registry workers %d != healthz workers %d", got, health.Jobs.Workers)
	}
}

// TestShedMetric fills the in-flight slots and checks that a shed
// request is counted with its outcome label and a 503.
func TestShedMetric(t *testing.T) {
	s, ts := testServer(t, "-max-inflight", "1")
	// Occupy the only slot directly.
	s.inflight <- struct{}{}
	defer func() { <-s.inflight }()

	resp, err := http.Get(ts.URL + "/v1/classify?type=S_3&limit=4")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := s.reg.Value("rc_http_shed_total", "/v1/classify"); got != 1 {
		t.Errorf("rc_http_shed_total = %v, want 1", got)
	}
	if got := s.reg.Value("rc_http_requests_total", "GET", "/v1/classify", "503"); got != 1 {
		t.Errorf("rc_http_requests_total{503} = %v, want 1", got)
	}
}

// TestJobMetricsAfterRun submits a job and checks the job + mc series.
func TestJobMetricsAfterRun(t *testing.T) {
	s, ts := testServer(t)

	body := strings.NewReader(`{"kind":"mc","params":{"target":"team-sn","n":2,"depth":4}}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var info jobs.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done := pollJob(t, ts.URL, info.ID); done.State != string(jobs.StateDone) {
		t.Fatalf("job finished %s: %s", done.State, done.Error)
	}

	if got := s.reg.Value("rc_jobs_done_total"); got != 1 {
		t.Errorf("rc_jobs_done_total = %v, want 1", got)
	}
	if got := s.reg.Value("rc_mc_runs_total"); got != 1 {
		t.Errorf("rc_mc_runs_total = %v, want 1", got)
	}
	if got := s.reg.Value("rc_mc_nodes_total"); got <= 0 {
		t.Errorf("rc_mc_nodes_total = %v, want > 0", got)
	}
	// The progress sink mirrored the run's final state into the gauges.
	if got := s.reg.Value("rc_progress_nodes", "mc"); got <= 0 {
		t.Errorf("rc_progress_nodes{mc} = %v, want > 0", got)
	}
	if got := s.reg.Value("rc_progress_frontier", "mc"); got != 0 {
		t.Errorf("rc_progress_frontier{mc} = %v, want 0 after the run", got)
	}

	// A violating run stops early with most roots unclaimed — the
	// sensitive case for the frontier's exact accounting (there is no
	// blanket end-of-round reset hiding a leak).
	body = strings.NewReader(`{"kind":"mc","params":{"target":"unsafe-noyield","n":2,"depth":12}}`)
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if done := pollJob(t, ts.URL, info.ID); done.State != string(jobs.StateDone) {
		t.Fatalf("violating job finished %s: %s", done.State, done.Error)
	}
	if got := s.reg.Value("rc_progress_frontier", "mc"); got != 0 {
		t.Errorf("rc_progress_frontier{mc} = %v, want 0 after early stop", got)
	}
}

// TestPprofFlag checks that /debug/pprof is absent by default and
// served under -pprof.
func TestPprofFlag(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("without -pprof: /debug/pprof/cmdline = %d, want 404", resp.StatusCode)
	}

	_, ts2 := testServer(t, "-pprof")
	resp, err = http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("with -pprof: /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}
}

// TestLogFlagsValidation pins the new flag validation.
func TestLogFlagsValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-log-format", "xml"}); err == nil {
		t.Error("bad -log-format accepted")
	}
	if _, err := parseFlags([]string{"-log-level", "verbose"}); err == nil {
		t.Error("bad -log-level accepted")
	}
	if _, err := parseFlags([]string{"-log-format", "json", "-log-level", "debug"}); err != nil {
		t.Errorf("valid log flags rejected: %v", err)
	}
}
