package store

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// storeHandler mimics the rcserve /v1/store routes over a backing
// Store, using the same GetRaw/PutRaw primitives the server uses — so
// these tests exercise both sides of the peer protocol.
func storeHandler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/store/{kind}/{addr}", func(w http.ResponseWriter, r *http.Request) {
		raw, ok, err := s.GetRaw(r.PathValue("kind"), r.PathValue("addr"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	})
	mux.HandleFunc("PUT /v1/store/{kind}/{addr}", func(w http.ResponseWriter, r *http.Request) {
		data := make([]byte, 0, 1024)
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			data = append(data, buf[:n]...)
			if err != nil {
				break
			}
		}
		if err := s.PutRaw(r.PathValue("kind"), r.PathValue("addr"), data); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func newPeerFixture(t testing.TB) (*Store, *httptest.Server) {
	t.Helper()
	remote := mustOpen(t, t.TempDir(), Options{})
	srv := httptest.NewServer(storeHandler(remote))
	t.Cleanup(srv.Close)
	return remote, srv
}

func TestPeerGetHitMissAndPut(t *testing.T) {
	remote, srv := newPeerFixture(t)
	if err := remote.Put(context.Background(), "search", "warm", []byte(`{"n":7}`)); err != nil {
		t.Fatal(err)
	}
	p, err := NewPeer(srv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != srv.URL {
		t.Fatalf("Name = %q", p.Name())
	}

	got, ok, err := p.Get(context.Background(), "search", "warm")
	if err != nil || !ok || string(got) != `{"n":7}` {
		t.Fatalf("peer hit: %q ok=%v err=%v", got, ok, err)
	}
	if _, ok, err := p.Get(context.Background(), "search", "cold"); ok || err != nil {
		t.Fatalf("peer miss: ok=%v err=%v", ok, err)
	}
	if err := p.Put(context.Background(), "job", "pushed", []byte(`{"r":"done"}`)); err != nil {
		t.Fatalf("peer put: %v", err)
	}
	if got, ok, _ := remote.Get(context.Background(), "job", "pushed"); !ok || string(got) != `{"r":"done"}` {
		t.Fatalf("pushed entry not on remote: %q ok=%v", got, ok)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Errors != 0 || st.Puts != 1 || st.Gets != 2 {
		t.Fatalf("peer stats: %+v", st)
	}
	if st.GetSeconds <= 0 {
		t.Fatalf("GetSeconds = %v, want > 0", st.GetSeconds)
	}
}

func TestNewPeerValidation(t *testing.T) {
	for _, bad := range []string{"", "localhost:8372", "ftp://x", "   "} {
		if _, err := NewPeer(bad, 0); err == nil {
			t.Errorf("NewPeer(%q) accepted", bad)
		}
	}
	p, err := NewPeer("http://replica:8372/", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "http://replica:8372" {
		t.Fatalf("trailing slash kept: %q", p.Name())
	}
}

// TestPeerDown: a refused connection is a counted operational error,
// never a hit, and the error carries the peer's base URL.
func TestPeerDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	p, err := NewPeer(url, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	data, ok, err := p.Get(context.Background(), "search", "k")
	if ok || data != nil {
		t.Fatalf("down peer produced a hit: %q", data)
	}
	if err == nil || !strings.Contains(err.Error(), url) {
		t.Fatalf("error %v does not identify the peer", err)
	}
	if st := p.Stats(); st.Errors != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("peer stats: %+v", st)
	}
}

// TestPeerSlow: a peer that stalls past the client deadline is an
// error, bounded by the configured timeout — a hung replica cannot hang
// the fleet.
func TestPeerSlow(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer func() { close(release); srv.Close() }()
	p, err := NewPeer(srv.URL, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, ok, err := p.Get(context.Background(), "search", "k")
	if ok || err == nil {
		t.Fatalf("slow peer: ok=%v err=%v", ok, err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline not enforced: took %v", el)
	}
	if st := p.Stats(); st.Errors != 1 {
		t.Fatalf("peer stats: %+v", st)
	}
}

// TestPeerCorruptEnvelope: every flavor of bad envelope — garbage,
// wrong checksum, wrong identity, wrong version, oversized — is
// rejected on receipt and counted as an error.
func TestPeerCorruptEnvelope(t *testing.T) {
	warmData, _, err := encodeEnvelope("search", "k", []byte(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() []byte{
		"garbage":  func() []byte { return []byte("not json at all") },
		"bad-sum":  func() []byte { return []byte(strings.Replace(string(warmData), `{"n":1}`, `{"n":2}`, 1)) },
		"bad-key":  func() []byte { d, _, _ := encodeEnvelope("search", "other", []byte(`{"n":1}`)); return d },
		"bad-kind": func() []byte { d, _, _ := encodeEnvelope("job", "k", []byte(`{"n":1}`)); return d },
		"too-big": func() []byte {
			d, _, _ := encodeEnvelope("search", "k", []byte(`{"pad":"`+strings.Repeat("x", maxPeerEnvelope)+`"}`))
			return d
		},
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write(body())
			}))
			defer srv.Close()
			p, err := NewPeer(srv.URL, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			data, ok, err := p.Get(context.Background(), "search", "k")
			if ok || data != nil || err == nil {
				t.Fatalf("corrupt envelope accepted: ok=%v err=%v", ok, err)
			}
			if st := p.Stats(); st.Errors != 1 || st.Hits != 0 {
				t.Fatalf("peer stats: %+v", st)
			}
		})
	}
}

// TestPeerServerRejectsCorruptPut: the receiving side re-verifies too —
// PutRaw refuses an envelope whose checksum or address doesn't hold, so
// a confused sender cannot poison a replica's store.
func TestPeerServerRejectsCorruptPut(t *testing.T) {
	remote, srv := newPeerFixture(t)
	good, _, err := encodeEnvelope("search", "k", []byte(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(good), `{"n":1}`, `{"n":9}`, 1)
	req, _ := http.NewRequest(http.MethodPut,
		srv.URL+"/v1/store/search/"+addr("search", "k"), strings.NewReader(tampered))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered put got status %d, want 400", resp.StatusCode)
	}
	if _, ok, _ := remote.Get(context.Background(), "search", "k"); ok {
		t.Fatal("tampered entry stored")
	}
	// Address/identity mismatch: valid envelope sent to the wrong address.
	req, _ = http.NewRequest(http.MethodPut,
		srv.URL+"/v1/store/search/"+addr("search", "elsewhere"), strings.NewReader(string(good)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misaddressed put got status %d, want 400", resp.StatusCode)
	}
}

// TestChainReadThroughAndHealing: a chain over (cold local, warm peer)
// serves the far hit and writes it back, so the second Get is local —
// and the healed file is byte-identical to one the local store would
// have written itself.
func TestChainReadThroughAndHealing(t *testing.T) {
	remote, srv := newPeerFixture(t)
	if err := remote.Put(context.Background(), "search", "warm", []byte(`{"n":42}`)); err != nil {
		t.Fatal(err)
	}
	local := mustOpen(t, t.TempDir(), Options{})
	p, err := NewPeer(srv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(local, p)
	if want := "chain(local," + srv.URL + ")"; c.Name() != want {
		t.Fatalf("chain name %q, want %q", c.Name(), want)
	}

	got, ok, err := c.Get(context.Background(), "search", "warm")
	if err != nil || !ok || string(got) != `{"n":42}` {
		t.Fatalf("chain read-through: %q ok=%v err=%v", got, ok, err)
	}
	if st := local.Stats(); st.Puts != 1 {
		t.Fatalf("write-back did not heal the local tier: %+v", st)
	}
	// Second Get is served locally — no new peer traffic.
	gets := p.Stats().Gets
	if _, ok, _ := c.Get(context.Background(), "search", "warm"); !ok {
		t.Fatal("healed entry lost")
	}
	if p.Stats().Gets != gets {
		t.Fatal("second Get still went to the peer")
	}
	// The healed file equals the remote's byte-for-byte.
	a := addr("search", "warm")
	lraw, ok, err := local.GetRaw("search", a)
	if err != nil || !ok {
		t.Fatalf("local GetRaw: ok=%v err=%v", ok, err)
	}
	rraw, _, _ := remote.GetRaw("search", a)
	if string(lraw) != string(rraw) {
		t.Fatal("healed entry differs from the peer's")
	}
}

// TestChainMissAndErrorPropagation: all tiers missing is a miss; a tier
// error surfaces only when nothing hits, and a later hit absorbs an
// earlier tier's failure.
func TestChainMissAndErrorPropagation(t *testing.T) {
	down := httptest.NewServer(http.NotFoundHandler())
	downURL := down.URL
	down.Close()
	deadPeer, err := NewPeer(downURL, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	remote, srv := newPeerFixture(t)
	if err := remote.Put(context.Background(), "search", "warm", []byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	livePeer, err := NewPeer(srv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Dead tier first, warm tier second: the hit wins, no error.
	c := NewChain(deadPeer, livePeer)
	if _, ok, err := c.Get(context.Background(), "search", "warm"); !ok || err != nil {
		t.Fatalf("hit behind a dead tier: ok=%v err=%v", ok, err)
	}
	// Everything misses or fails: the first error is reported with ok=false.
	if _, ok, err := c.Get(context.Background(), "search", "nowhere"); ok || err == nil {
		t.Fatalf("want miss with the dead tier's error, got ok=%v err=%v", ok, err)
	}
	// A pure miss (no failing tier) carries no error.
	c2 := NewChain(livePeer)
	if _, ok, err := c2.Get(context.Background(), "search", "nowhere"); ok || err != nil {
		t.Fatalf("pure miss: ok=%v err=%v", ok, err)
	}
}

// TestChainDisklessPut: with a peer as tier 0 (a diskless worker), Put
// pushes results into the shared pool.
func TestChainDisklessPut(t *testing.T) {
	remote, srv := newPeerFixture(t)
	p, err := NewPeer(srv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(p)
	if err := c.Put(context.Background(), "search", "k", []byte(`{"n":3}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := remote.Get(context.Background(), "search", "k"); !ok {
		t.Fatal("diskless put did not reach the pool")
	}
}

func TestNewChainPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChain() did not panic")
		}
	}()
	NewChain()
}
