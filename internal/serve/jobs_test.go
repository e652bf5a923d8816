package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"rcons/internal/jobs"
	"rcons/internal/types"
)

// leakCheck snapshots the goroutine count and, after every cleanup
// registered later has run (server closed, jobs drained), polls until
// the count is back at the baseline. A telemetry goroutine that
// outlives -drain — a progress publisher left running, a sink still
// flushing — fails the test here with a full stack dump.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak after teardown: %d before, %d now\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// jobInfoJSON mirrors the wire form of jobs.Info.
type jobInfoJSON struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	State     string          `json:"state"`
	Params    json.RawMessage `json:"params"`
	Result    json.RawMessage `json:"result"`
	Error     string          `json:"error"`
	FromStore bool            `json:"fromStore"`
}

func postJob(t *testing.T, url, body string, wantStatus int) jobInfoJSON {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info jobInfoJSON
	if resp.StatusCode != wantStatus {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/jobs %s = %d (want %d): %v", body, resp.StatusCode, wantStatus, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode job response: %v", err)
	}
	return info
}

func pollJob(t *testing.T, url, id string) jobInfoJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var info jobInfoJSON
		getJSON(t, url+"/v1/jobs/"+id, http.StatusOK, &info)
		switch info.State {
		case string(jobs.StateDone), string(jobs.StateFailed), string(jobs.StateCancelled):
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobInfoJSON{}
}

// TestJobsEndToEnd submits a census job, polls it to completion, and
// checks coalescing of an equivalent (differently-spelled) submission.
func TestJobsEndToEnd(t *testing.T) {
	_, ts := testServer(t)

	info := postJob(t, ts.URL, `{"kind":"census","params":{"states":2,"ops":2,"random":50}}`, http.StatusAccepted)
	if info.ID == "" || info.Kind != "census" {
		t.Fatalf("submit: %+v", info)
	}
	// Equivalent params (defaults spelled out, different key order) must
	// coalesce onto the same job with a 200.
	dup := postJob(t, ts.URL,
		`{"kind":"census","params":{"random":50,"ops":2,"states":2,"resps":1,"mutants":1,"seed":1,"limit":3}}`,
		http.StatusOK)
	if dup.ID != info.ID {
		t.Fatalf("equivalent submissions got distinct jobs: %s vs %s", dup.ID, info.ID)
	}
	done := pollJob(t, ts.URL, info.ID)
	if done.State != string(jobs.StateDone) || done.Error != "" {
		t.Fatalf("job finished badly: %+v", done)
	}
	var summary struct {
		Types      int            `json:"types"`
		RconsBands map[string]int `json:"rconsBands"`
	}
	if err := json.Unmarshal(done.Result, &summary); err != nil {
		t.Fatalf("census result: %v (%s)", err, done.Result)
	}
	if summary.Types == 0 || len(summary.RconsBands) == 0 {
		t.Fatalf("census result empty: %+v", summary)
	}
	// Distinct params → distinct job.
	other := postJob(t, ts.URL, `{"kind":"census","params":{"states":2,"ops":2,"random":51}}`, http.StatusAccepted)
	if other.ID == info.ID {
		t.Fatal("different params share a job ID")
	}
}

func TestJobsZooAndMcKinds(t *testing.T) {
	_, ts := testServer(t)

	zoo := postJob(t, ts.URL, `{"kind":"zoo","params":{"limit":3}}`, http.StatusAccepted)
	done := pollJob(t, ts.URL, zoo.ID)
	if done.State != string(jobs.StateDone) {
		t.Fatalf("zoo job: %+v", done)
	}
	var zr struct {
		Count   int `json:"count"`
		Results []struct {
			Type string `json:"type"`
		} `json:"results"`
	}
	if err := json.Unmarshal(done.Result, &zr); err != nil || zr.Count == 0 || len(zr.Results) != zr.Count {
		t.Fatalf("zoo result: %v %+v", err, zr)
	}

	mcj := postJob(t, ts.URL, `{"kind":"mc","params":{"target":"team-sn","n":2,"depth":8,"crashes":1}}`, http.StatusAccepted)
	done = pollJob(t, ts.URL, mcj.ID)
	if done.State != string(jobs.StateDone) {
		t.Fatalf("mc job: %+v", done)
	}
	var mr struct {
		Safe       bool `json:"safe"`
		Exhaustive bool `json:"exhaustive"`
	}
	if err := json.Unmarshal(done.Result, &mr); err != nil || !mr.Safe || !mr.Exhaustive {
		t.Fatalf("mc result: %v %+v", err, mr)
	}
}

func TestJobsValidation(t *testing.T) {
	_, ts := testServer(t)
	for name, body := range map[string]string{
		"unknown kind":        `{"kind":"frobnicate","params":{}}`,
		"malformed body":      `{kind:`,
		"unknown param":       `{"kind":"census","params":{"stats":3}}`,
		"census over cap":     `{"kind":"census","params":{"random":1000000}}`,
		"census nothing":      `{"kind":"census","params":{"states":0,"ops":0,"random":0,"mutants":0}}`,
		"mc missing target":   `{"kind":"mc","params":{}}`,
		"mc unknown target":   `{"kind":"mc","params":{"target":"nope"}}`,
		"mc depth over cap":   `{"kind":"mc","params":{"target":"cas","depth":99}}`,
		"mc target/n clash":   `{"kind":"mc","params":{"target":"unsafe-yieldalways","n":2}}`,
		"zoo limit over cap":  `{"kind":"zoo","params":{"limit":99}}`,
		"zoo limit too small": `{"kind":"zoo","params":{"limit":1}}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s = %d, want 400", body, resp.StatusCode)
			}
			var e map[string]string
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
				t.Fatalf("error payload: %v %v", e, err)
			}
		})
	}
	// Unknown job ID and wrong methods.
	getJSON(t, ts.URL+"/v1/jobs/jdoesnotexist", http.StatusNotFound, nil)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/jdoesnotexist", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs", strings.NewReader("{}"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/jobs = %d", resp.StatusCode)
	}
}

func TestJobsListing(t *testing.T) {
	s, ts := testServer(t)
	a := postJob(t, ts.URL, `{"kind":"zoo","params":{"limit":3}}`, http.StatusAccepted)
	pollJob(t, ts.URL, a.ID)
	var list struct {
		Count int           `json:"count"`
		Jobs  []jobInfoJSON `json:"jobs"`
		Kinds []string      `json:"kinds"`
	}
	getJSON(t, ts.URL+"/v1/jobs", http.StatusOK, &list)
	if list.Count == 0 || len(list.Jobs) != list.Count {
		t.Fatalf("listing: %+v", list)
	}
	if want := []string{"census", "mc", "zoo"}; fmt.Sprint(list.Kinds) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v, want %v", list.Kinds, want)
	}
	for _, j := range list.Jobs {
		if len(j.Result) != 0 || len(j.Params) != 0 {
			t.Fatalf("listing leaks payloads: %+v", j)
		}
	}
	_ = s
}

// TestJobCancelMidRun registers a test-only blocking kind directly on
// the manager and cancels it while running.
func TestJobCancelMidRun(t *testing.T) {
	s, ts := testServer(t)
	release := make(chan struct{})
	s.jobs.Register("block", func(ctx context.Context, _ json.RawMessage) (json.RawMessage, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return json.RawMessage(`{}`), nil
		}
	})
	defer close(release)
	info, existing, err := s.jobs.Submit(context.Background(), "block", json.RawMessage(`{"i":1}`))
	if err != nil || existing {
		t.Fatalf("submit: %v existing=%v", err, existing)
	}
	// Wait until it is actually running, then cancel over HTTP.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := s.jobs.Get(info.ID)
		if got.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job = %d", resp.StatusCode)
	}
	final := pollJob(t, ts.URL, info.ID)
	if final.State != string(jobs.StateCancelled) {
		t.Fatalf("after cancel: %+v", final)
	}
	// Cancelling a finished job conflicts.
	done := postJob(t, ts.URL, `{"kind":"zoo","params":{"limit":3}}`, http.StatusAccepted)
	pollJob(t, ts.URL, done.ID)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+done.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE done job = %d, want 409", resp.StatusCode)
	}
}

// TestJobsSurviveRestart is the PR's acceptance test: a census job's
// result must be served from the on-disk store after a full server
// restart — same store dir, brand-new server, engine and job manager —
// and the duplicate submission must return the same job ID without
// recomputation.
func TestJobsSurviveRestart(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	body := `{"kind":"census","params":{"states":2,"ops":2,"random":60}}`

	cfg, err := parseFlags([]string{"-workers", "4", "-store", dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	first := postJob(t, ts1.URL, body, http.StatusAccepted)
	done := pollJob(t, ts1.URL, first.ID)
	if done.State != string(jobs.StateDone) {
		t.Fatalf("first run: %+v", done)
	}
	// Stop the world: server closed, manager drained.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	// Restart on the same store directory.
	s2, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	t.Cleanup(func() { _ = s2.drainJobs(ctx) })

	engineSearches := s2.eng.Stats()
	again := postJob(t, ts2.URL, body, http.StatusOK)
	if again.ID != first.ID {
		t.Fatalf("restarted submission got a new ID: %s vs %s", again.ID, first.ID)
	}
	if again.State != string(jobs.StateDone) || !again.FromStore {
		t.Fatalf("restarted submission not served from store: %+v", again)
	}
	if string(again.Result) != string(done.Result) {
		t.Fatalf("stored result differs across restart:\n%s\nvs\n%s", again.Result, done.Result)
	}
	// No recomputation: the engine never ran a search for it.
	after := s2.eng.Stats()
	if after.Classifications != engineSearches.Classifications || after.PersistMisses != engineSearches.PersistMisses {
		t.Fatalf("restarted submission recomputed: %+v vs %+v", after, engineSearches)
	}
	// And the store-backed /healthz shows the store.
	var health struct {
		Status string `json:"status"`
		Store  *struct {
			Entries int64 `json:"entries"`
		} `json:"store"`
		Jobs struct {
			StoreHits int64 `json:"storeHits"`
		} `json:"jobs"`
	}
	getJSON(t, ts2.URL+"/healthz", http.StatusOK, &health)
	if health.Store == nil || health.Store.Entries == 0 {
		t.Fatalf("healthz store stats missing: %+v", health)
	}
	if health.Jobs.StoreHits != 1 {
		t.Fatalf("healthz job stats: %+v", health.Jobs)
	}
}

// TestServerDrain checks the graceful-shutdown satellite: drain waits
// for in-flight limited handlers and running jobs.
func TestServerDrain(t *testing.T) {
	s, _ := testServer(t)
	release := make(chan struct{})
	s.jobs.Register("block", func(ctx context.Context, _ json.RawMessage) (json.RawMessage, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return json.RawMessage(`{"finished":true}`), nil
		}
	})
	info, _, err := s.jobs.Submit(context.Background(), "block", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy an in-flight slot like a running handler would.
	s.inflight <- struct{}{}
	go func() {
		time.Sleep(50 * time.Millisecond)
		<-s.inflight // handler finishes
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, _ := s.jobs.Get(info.ID)
	if got.State != jobs.StateDone {
		t.Fatalf("job not drained to completion: %+v", got)
	}
	// After drain, submissions shed.
	if _, _, err := s.jobs.Submit(context.Background(), "block", nil); err == nil {
		t.Fatal("submit accepted after drain")
	}
}

// TestHealthzJobStats checks /healthz carries queue statistics.
func TestHealthzJobStats(t *testing.T) {
	_, ts := testServer(t)
	info := postJob(t, ts.URL, `{"kind":"zoo","params":{"limit":3}}`, http.StatusAccepted)
	pollJob(t, ts.URL, info.ID)
	var health struct {
		Jobs *struct {
			Workers   int   `json:"workers"`
			Done      int64 `json:"done"`
			Submitted int64 `json:"submitted"`
		} `json:"jobs"`
		Cache struct {
			Classifications int64 `json:"classifications"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Jobs == nil || health.Jobs.Workers != 2 || health.Jobs.Done == 0 || health.Jobs.Submitted == 0 {
		t.Fatalf("healthz jobs: %+v", health.Jobs)
	}
	if health.Cache.Classifications != int64(len(types.Zoo())) {
		t.Fatalf("healthz cache counters after one zoo job: %+v, want %d classifications", health.Cache, len(types.Zoo()))
	}
}
