package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"rcons/internal/store"
)

func TestStoreRoutes(t *testing.T) {
	s, ts := testServer(t, "-store", t.TempDir())
	if err := s.store.Put(context.Background(), "search", "k", []byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	raw, ok, err := s.store.GetRaw("search", entryAddr(t, s, "search", "k"))
	if err != nil || !ok {
		t.Fatalf("GetRaw: ok=%v err=%v", ok, err)
	}

	// GET an existing entry: exact raw envelope bytes.
	resp, err := http.Get(ts.URL + "/v1/store/search/" + entryAddr(t, s, "search", "k"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != string(raw) {
		t.Fatalf("store GET: %d %q", resp.StatusCode, body)
	}

	// Absent entry and invalid address.
	getJSON(t, ts.URL+"/v1/store/search/"+strings.Repeat("0", 64), http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/store/search/nothex", http.StatusBadRequest, nil)

	// PUT round-trips through a second server.
	s2, ts2 := testServer(t, "-store", t.TempDir())
	req, _ := http.NewRequest(http.MethodPut,
		ts2.URL+"/v1/store/search/"+entryAddr(t, s, "search", "k"), strings.NewReader(string(raw)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("store PUT: %d", resp.StatusCode)
	}
	if got, ok, _ := s2.store.Get(context.Background(), "search", "k"); !ok || string(got) != `{"n":1}` {
		t.Fatalf("entry did not land on the second server: %q ok=%v", got, ok)
	}

	// A tampered envelope is rejected and nothing is stored.
	tampered := strings.Replace(string(raw), `{"n":1}`, `{"n":666}`, 1)
	req, _ = http.NewRequest(http.MethodPut,
		ts2.URL+"/v1/store/search/"+entryAddr(t, s, "search", "k"), strings.NewReader(tampered))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered PUT accepted: %d", resp.StatusCode)
	}
}

// TestBodyReadErrors: every handler that reads a body answers 413 for
// one past -max-body and 400 for one that cannot be read, the store
// PUT included (it used to answer 413 for both).
func TestBodyReadErrors(t *testing.T) {
	cfg, err := parseFlags([]string{"-store", t.TempDir(), "-log-level", "error"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.maxBody = 256
	s, _ := testServerFromConfig(t, cfg)
	h := s.Handler()
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/v1/classify?limit=3"},
		{http.MethodPost, "/v1/classify/batch"},
		{http.MethodPost, "/v1/jobs"},
		{http.MethodPut, "/v1/store/search/" + entryAddr(t, s, "search", "k")},
	} {
		for _, tc := range []struct {
			body io.Reader
			want int
		}{
			{iotest.ErrReader(errors.New("connection reset")), http.StatusBadRequest},
			{strings.NewReader(strings.Repeat("x", 1024)), http.StatusRequestEntityTooLarge},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(route.method, route.path, tc.body))
			if rec.Code != tc.want {
				t.Errorf("%s %s: %d %s, want %d", route.method, route.path, rec.Code, rec.Body, tc.want)
			}
		}
	}
}

// TestDrainClosesStore: a drained server releases its store, so a
// later handle on the directory may evict what it wrote.
func TestDrainClosesStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := testServer(t, "-store", dir)
	for i := 0; i < 4; i++ {
		if err := s.store.Put(context.Background(), "search", fmt.Sprint(i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Stats(); got.DiskEvictions != 4 || got.Entries != 0 {
		t.Fatalf("the drained server's records were not evictable: %+v", got)
	}
}

func TestStoreRoutesWithoutStore(t *testing.T) {
	_, ts := testServer(t)
	getJSON(t, ts.URL+"/v1/store/search/"+strings.Repeat("a", 64), http.StatusNotFound, nil)
	resp, err := http.Post(ts.URL+"/v1/store/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("compact without store: %d", resp.StatusCode)
	}
}

func TestStoreCompactRoute(t *testing.T) {
	s, ts := testServer(t, "-store", t.TempDir())
	for i := 0; i < 3; i++ {
		if err := s.store.Put(context.Background(), "search", fmt.Sprintf("k%d", i), []byte(`{"n":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/store/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d", resp.StatusCode)
	}
	var cs store.CompactStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if cs.EntriesAfter != 3 || cs.Evicted != 0 {
		t.Fatalf("compact stats: %+v", cs)
	}
	if st := s.store.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions counter: %+v", st)
	}
}

// TestPeerReadThroughClassify is the in-process acceptance test for the
// fleet tiering: replica A computes and persists a classification;
// replica B — empty store, A as its peer — answers the same query by
// read-through with ZERO engine search work (PersistMisses stays 0),
// and the fetched entries heal B's local store.
func TestPeerReadThroughClassify(t *testing.T) {
	_, tsA := testServer(t, "-store", t.TempDir())
	// Warm A: classify S_3 so every per-level search result persists.
	getJSON(t, tsA.URL+"/v1/classify?type=S_3&limit=4", http.StatusOK, nil)

	sB, tsB := testServer(t, "-store", t.TempDir(), "-store-peer", tsA.URL)
	getJSON(t, tsB.URL+"/v1/classify?type=S_3&limit=4", http.StatusOK, nil)

	cs := sB.eng.Stats()
	if cs.PersistMisses != 0 || cs.PersistErrors != 0 {
		t.Fatalf("replica B searched instead of reading through: %+v", cs)
	}
	if cs.PersistHits == 0 {
		t.Fatalf("replica B recorded no persist hits: %+v", cs)
	}
	if len(sB.peers) != 1 {
		t.Fatalf("replica B has %d peers", len(sB.peers))
	}
	ps := sB.peers[0].Stats()
	if ps.Hits == 0 || ps.Errors != 0 {
		t.Fatalf("peer tier stats: %+v", ps)
	}
	// Write-back healing: B's local store now holds the fetched entries.
	if st := sB.store.Stats(); st.Puts == 0 {
		t.Fatalf("peer hits did not heal B's local store: %+v", st)
	}
	// B's metrics expose the per-peer series with A's URL as the label.
	if hits := sB.reg.Value("rc_store_peer_hits_total", tsA.URL); hits == 0 {
		t.Fatalf("rc_store_peer_hits_total{peer=%q} = %v", tsA.URL, hits)
	}
	// And /healthz carries the same numbers.
	var health struct {
		StorePeers map[string]store.PeerStats `json:"storePeers"`
	}
	getJSON(t, tsB.URL+"/healthz", http.StatusOK, &health)
	if health.StorePeers[tsA.URL].Hits != ps.Hits {
		t.Fatalf("healthz peer stats %+v drifted from %+v", health.StorePeers[tsA.URL], ps)
	}
}

// TestDisklessPeerOnly: a replica with -store-peer but no -store serves
// classifications against the fleet pool and pushes results back to it.
func TestDisklessPeerOnly(t *testing.T) {
	sA, tsA := testServer(t, "-store", t.TempDir())
	sB, tsB := testServer(t, "-store-peer", tsA.URL)
	if sB.store != nil {
		t.Fatal("diskless replica opened a store")
	}
	getJSON(t, tsB.URL+"/v1/classify?type=S_3&limit=3", http.StatusOK, nil)
	// B computed (A was cold) and pushed its results into A's store.
	if st := sA.store.Stats(); st.Puts == 0 {
		t.Fatalf("diskless replica did not contribute to the pool: %+v", st)
	}
	if ps := sB.peers[0].Stats(); ps.Puts == 0 {
		t.Fatalf("peer put counters: %+v", ps)
	}
}

// TestPeerDownDegradesToCompute: replica B pointed at a dead peer still
// answers queries; the failures are counted, never surfaced.
func TestPeerDownDegradesToCompute(t *testing.T) {
	sB, tsB := testServer(t, "-store", t.TempDir(), "-store-peer", "http://127.0.0.1:1")
	getJSON(t, tsB.URL+"/v1/classify?type=S_3&limit=3", http.StatusOK, nil)
	if ps := sB.peers[0].Stats(); ps.Errors == 0 || ps.Hits != 0 {
		t.Fatalf("dead peer stats: %+v", ps)
	}
	// Local results still persisted; the dead tier cost nothing but time.
	if st := sB.store.Stats(); st.Puts == 0 {
		t.Fatalf("local store not written: %+v", st)
	}
}

// TestSearchResponseMemo: a repeated /v1/search is answered from the
// response memo — byte-identical and without reading the store — while
// under -cache -1 every repeat re-enters the engine, whose search reads
// through the store.
func TestSearchResponseMemo(t *testing.T) {
	const path = "/v1/search?type=S_3&property=recording&n=3"
	get := func(ts *httptest.Server) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v: %s", path, resp.StatusCode, err, body)
		}
		return string(body)
	}

	s, ts := testServer(t, "-store", t.TempDir())
	first := get(ts)
	var found struct{ Found bool }
	if err := json.Unmarshal([]byte(first), &found); err != nil || !found.Found {
		t.Fatalf("S_3 is 3-recording, got %s (%v)", first, err)
	}
	if st := s.eng.Stats(); st.PersistHits != 0 || st.PersistMisses != 1 {
		t.Fatalf("cold search: %+v, want exactly one persist miss", st)
	}
	if n := s.items.Len(); n != 1 {
		t.Fatalf("response memo holds %d payloads after one search, want 1", n)
	}
	if again := get(ts); again != first {
		t.Fatalf("warm search body differs:\n%s\nvs\n%s", again, first)
	}
	if st := s.eng.Stats(); st.PersistHits+st.PersistMisses != 1 {
		t.Fatalf("warm search re-entered the engine: %+v", st)
	}

	s, ts = testServer(t, "-store", t.TempDir(), "-cache", "-1")
	if again := get(ts); again != first {
		t.Fatalf("unmemoized cold search body differs:\n%s\nvs\n%s", again, first)
	}
	get(ts)
	if st := s.eng.Stats(); st.PersistHits != 1 || st.PersistMisses != 1 {
		t.Fatalf("unmemoized repeat: %+v, want one persist miss then one hit", st)
	}
}

func TestStoreFlagValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-store-budget", "64M"}); err == nil {
		t.Fatal("-store-budget without -store accepted")
	}
	if _, err := parseFlags([]string{"-store", "d", "-store-budget", "sixty"}); err == nil {
		t.Fatal("bad -store-budget accepted")
	}
	if _, err := NewFromFlags("-store-peer", "not-a-url", "-log-level", "error"); err == nil {
		t.Fatal("bad -store-peer accepted")
	}
	cfg, err := parseFlags([]string{"-store", "d", "-store-budget", "64M",
		"-store-peer", "http://a:1, http://b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.storeBudget != 64<<20 || len(cfg.storePeers) != 2 || cfg.storePeers[1] != "http://b:2" {
		t.Fatalf("parsed config: %+v", cfg)
	}
}

// entryAddr computes an entry's content address for building route URLs.
func entryAddr(t *testing.T, s *Server, kind, key string) string {
	t.Helper()
	return store.Addr(kind, key)
}
