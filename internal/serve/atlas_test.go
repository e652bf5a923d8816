package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"rcons/internal/atlas/census"
	"rcons/internal/types"
)

// postJSONBody POSTs body and decodes the JSON response.
func postJSONBody(t *testing.T, url string, body []byte, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s = %d (want %d): %v", url, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
}

// TestAtlasCensusEndpoint: /v1/atlas returns a verifiable census
// summary, identical across repeated (cached) calls.
func TestAtlasCensusEndpoint(t *testing.T) {
	_, ts := testServer(t)
	url := ts.URL + "/v1/atlas?states=2&ops=2&resps=2&random=60&mutants=1&seed=7&limit=3"
	var got census.Summary
	getJSON(t, url, http.StatusOK, &got)
	if got.Version != census.Version {
		t.Fatalf("summary version %d, want %d", got.Version, census.Version)
	}
	if got.Types == 0 || len(got.RconsBands) == 0 {
		t.Fatalf("empty census summary: %+v", got)
	}
	if len(got.Zoo) == 0 {
		t.Fatal("summary lacks the zoo comparison")
	}
	if len(got.Skipped) != 0 {
		t.Fatalf("census skipped types: %v", got.Skipped)
	}
	var again census.Summary
	getJSON(t, url, http.StatusOK, &again)
	if !reflect.DeepEqual(got, again) {
		t.Fatal("cached census summary differs from the first")
	}
}

// TestAtlasCensusCaps: oversized universes are refused up front.
func TestAtlasCensusCaps(t *testing.T) {
	_, ts := testServer(t)
	for _, q := range []string{
		"states=9",                    // above the states cap
		"random=100000",               // above the random cap
		"limit=99",                    // above the limit cap
		"seed=not-a-seed",             // malformed seed
		"random=0&mutants=0&states=0", // below the states floor
	} {
		resp, err := http.Get(ts.URL + "/v1/atlas?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/atlas?%s = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestAtlasRandomOnlyCensus: states=0 skips the enumeration stage.
func TestAtlasRandomOnlyCensus(t *testing.T) {
	_, ts := testServer(t)
	var got census.Summary
	getJSON(t, ts.URL+"/v1/atlas?states=0&random=40&mutants=0&seed=3&limit=2", http.StatusOK, &got)
	if got.Raw != 0 {
		t.Fatalf("random-only census still enumerated %d raw tables", got.Raw)
	}
	if got.Types == 0 {
		t.Fatal("random-only census produced no types")
	}
}

// TestAtlasConcurrentColdRequests: identical cold requests race through
// the in-flight dedup path; all must succeed and agree.
func TestAtlasConcurrentColdRequests(t *testing.T) {
	_, ts := testServer(t)
	url := ts.URL + "/v1/atlas?states=2&ops=1&resps=1&random=20&mutants=0&seed=5&limit=2"
	const n = 6
	results := make([]census.Summary, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs <- json.NewDecoder(resp.Body).Decode(&results[i])
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("concurrent requests disagree: %+v vs %+v", results[0], results[i])
		}
	}
}

// TestAtlasTypeEndpoint: /v1/atlas/type returns a re-importable table
// whose classification matches re-classifying that table directly, and
// the same seed always returns the same type, the repeat from the
// response memo.
func TestAtlasTypeEndpoint(t *testing.T) {
	s, ts := testServer(t)
	url := ts.URL + "/v1/atlas/type?seed=42&states=3&ops=2&resps=2&limit=3"
	var got struct {
		Seed           int64              `json:"seed"`
		Dims           string             `json:"dims"`
		Key            string             `json:"key"`
		Table          json.RawMessage    `json:"table"`
		Classification classificationJSON `json:"classification"`
	}
	getJSON(t, url, http.StatusOK, &got)
	if got.Seed != 42 || got.Key == "" {
		t.Fatalf("bad identity: %+v", got)
	}
	c, err := types.NewCustomFromJSON(got.Table)
	if err != nil {
		t.Fatalf("returned table does not re-import: %v", err)
	}
	if c.Name() != got.Classification.Type {
		t.Fatalf("table name %q vs classification type %q", c.Name(), got.Classification.Type)
	}

	var again struct {
		Key   string          `json:"key"`
		Table json.RawMessage `json:"table"`
	}
	getJSON(t, url, http.StatusOK, &again)
	if again.Key != got.Key {
		t.Fatalf("same seed, different type: %s vs %s", got.Key, again.Key)
	}
	if n := s.eng.Stats().Classifications; n != 1 {
		t.Fatalf("two identical requests made %d classifications, want 1", n)
	}

	// Round trip: POSTing the returned table to /v1/classify yields the
	// same bands.
	var direct classificationJSON
	postJSONBody(t, ts.URL+"/v1/classify?limit=3", got.Table, http.StatusOK, &direct)
	if direct.Rcons.Display != got.Classification.Rcons.Display ||
		direct.Cons.Display != got.Classification.Cons.Display {
		t.Fatalf("bands differ between /v1/atlas/type and /v1/classify: %+v vs %+v",
			got.Classification, direct)
	}
}
