package store

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// The benchmarks time the store the way the engine and the service use
// it: small JSON payloads under fingerprint-shaped keys.

var benchPayload = []byte(`{"found":true,"witness":{"q0":"q1","teams":[0,1,0],"ops":["a","b","a"]}}`)

// BenchmarkGetHit is the steady-state read a warm replica pays per
// lookup: one pread of the indexed frame, then its CRC, address,
// envelope and payload checksum verified before the payload is served.
func BenchmarkGetHit(b *testing.B) {
	s := mustOpen(b, b.TempDir(), Options{})
	ctx := context.Background()
	if err := s.Put(ctx, "search", "bench-key", benchPayload); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, ok, err := s.Get(ctx, "search", "bench-key"); !ok || err != nil {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkPut is the crash-safe write, one frame appended to the pack
// and then synced, with a distinct key per write: a repeated key would
// be an idempotent no-op.
func BenchmarkPut(b *testing.B) {
	s := mustOpen(b, b.TempDir(), Options{})
	ctx := context.Background()
	for i := 0; b.Loop(); i++ {
		payload := []byte(fmt.Sprintf(`{"row":%d}`, i))
		if err := s.Put(ctx, "census-row", fmt.Sprintf("bench-key-%08d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvict is a write to a store held at its byte budget, so that
// every put also pays one size-aware LRU eviction.
func BenchmarkEvict(b *testing.B) {
	// The budget holds about 64 entries of this fixed-shape payload.
	payload := []byte(`{"row":1234567,"pad":"xxxxxxxxxxxxxxxx"}`)
	s := mustOpen(b, b.TempDir(), Options{BudgetBytes: 64 * 256})
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := s.Put(ctx, "census-row", fmt.Sprintf("prefill-%08d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
	before := s.Stats().DiskEvictions
	if before == 0 {
		b.Fatal("the prefill never reached the budget")
	}
	for i := 0; b.Loop(); i++ {
		if err := s.Put(ctx, "census-row", fmt.Sprintf("bench-key-%08d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
	if s.Stats().DiskEvictions == before {
		b.Fatal("the measured puts never evicted")
	}
}

// BenchmarkPeerHit is the read-through round trip a cold replica pays
// per result it fetches from a warm peer: an HTTP fetch plus the
// envelope's re-verification.
func BenchmarkPeerHit(b *testing.B) {
	remote, srv := newPeerFixture(b)
	ctx := context.Background()
	if err := remote.Put(ctx, "search", "bench-key", benchPayload); err != nil {
		b.Fatal(err)
	}
	p, err := NewPeer(srv.URL, 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, ok, err := p.Get(ctx, "search", "bench-key"); !ok || err != nil {
			b.Fatalf("peer get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkEnvelopeDecode is the verification every disk hit pays: one
// pass over an envelope holding a search result under a
// fingerprint-shaped key, with its payload checksum.
func BenchmarkEnvelopeDecode(b *testing.B) {
	data, _, err := encodeEnvelope("search", strings.Repeat("3f", 32)+"/recording/3", benchPayload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeEnvelope(data); err != nil {
			b.Fatal(err)
		}
	}
}
