package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"rcons/internal/checker"
	"rcons/internal/compile"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// readabilityBodies are one 2-state table POSTed readable and not.
var readabilityBodies = []string{
	`{"name":"T","initial":["0"],"transitions":{"0":{"ts":{"next":"1","resp":"0"}},"1":{"ts":{"next":"1","resp":"1"}}}}`,
	`{"name":"T","initial":["0"],"transitions":{"0":{"ts":{"next":"1","resp":"0"}},"1":{"ts":{"next":"1","resp":"1"}}},"readable":false}`,
}

// postClassify POSTs body to /v1/classify at limit 3 and decodes the
// classification, dropping the canonical fingerprint.
func postClassify(url, body string) (classificationJSON, error) {
	resp, err := http.Post(url+"/v1/classify?limit=3", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return classificationJSON{}, err
	}
	defer resp.Body.Close()
	var out classificationJSON
	err = json.NewDecoder(resp.Body).Decode(&out)
	out.CanonicalFingerprint = ""
	return out, err
}

// TestClassifyReadabilityBodies: the readable and non-readable uploads
// of one table must each get checker.Classify's answer, whether they
// arrive one after the other (one engine classifies both) or
// concurrently (request coalescing sees both).
func TestClassifyReadabilityBodies(t *testing.T) {
	want := make([]classificationJSON, len(readabilityBodies))
	for i, body := range readabilityBodies {
		typ, err := types.NewCustomFromJSON([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		c, err := checker.Classify(typ, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encodeClassification(c)
	}
	if reflect.DeepEqual(want[0], want[1]) {
		t.Fatal("readability does not change this table's classification; the test is void")
	}

	_, ts := testServer(t)
	for i, body := range readabilityBodies {
		got, err := postClassify(ts.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sequential body %d: got %+v, want %+v", i, got, want[i])
		}
	}

	_, ts = testServer(t)
	const rounds = 8
	got := make([]classificationJSON, 2*rounds)
	errs := make([]error, 2*rounds)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[k], errs[k] = postClassify(ts.URL, readabilityBodies[k%2])
		}()
	}
	close(start)
	wg.Wait()
	for k := range got {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		if !reflect.DeepEqual(got[k], want[k%2]) {
			t.Fatalf("concurrent body %d: got %+v, want %+v", k%2, got[k], want[k%2])
		}
	}
}

// countingType counts the Apply calls made on the type it wraps.
type countingType struct {
	spec.Type
	applies *atomic.Int64
}

func (c countingType) Apply(s spec.State, op spec.Op) (spec.State, spec.Response, error) {
	c.applies.Add(1)
	return c.Type.Apply(s, op)
}

// TestClassifyPostWalks: a cold POST /v1/classify walks the table once
// for the engine's scans — an uploaded table has one alphabet, so one
// table, at every level — and once at the limit for the canonical
// fingerprint; a repeat is served from the response memo with no walk.
func TestClassifyPostWalks(t *testing.T) {
	const body = `{"name":"W","initial":["a"],"transitions":{` +
		`"a":{"f":{"next":"b","resp":"0"},"g":{"next":"a","resp":"1"}},` +
		`"b":{"f":{"next":"c","resp":"0"},"g":{"next":"a","resp":"0"}},` +
		`"c":{"f":{"next":"c","resp":"1"},"g":{"next":"b","resp":"1"}}}}`
	raw, err := types.NewCustomFromJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	const limit = 3
	walk := func(n int) int64 {
		c, err := compile.Table(raw, n)
		if err != nil {
			t.Fatal(err)
		}
		return int64(c.NumStates() * c.NumOps())
	}
	cold := walk(2) + walk(limit)

	var applies atomic.Int64
	cfg, err := parseFlags([]string{"-workers", "4", "-log-level", "error"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.parseTable = func(b []byte) (spec.Type, error) {
		c, err := types.NewCustomFromJSON(b)
		if err != nil {
			return nil, err
		}
		return countingType{c, &applies}, nil
	}
	ts := startTestServer(t, s)
	if _, err := postClassify(ts.URL, body); err != nil {
		t.Fatal(err)
	}
	if got := applies.Load(); got != cold {
		t.Fatalf("cold POST made %d Apply calls, want %d (one walk for the scans, one for the canonical fingerprint at %d)", got, cold, limit)
	}
	if _, err := postClassify(ts.URL, body); err != nil {
		t.Fatal(err)
	}
	if got := applies.Load(); got != cold {
		t.Fatalf("repeated POST made %d more Apply calls, want 0", got-cold)
	}
}
