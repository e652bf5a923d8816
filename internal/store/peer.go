package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"rcons/internal/obs"
)

// maxPeerEnvelope bounds how much of a peer response a Get will read;
// entries in this repository are small JSON results, so anything
// approaching this is a misbehaving peer, not a result.
const maxPeerEnvelope = 8 << 20

// Peer is the HTTP read-through backend: it fetches entries from
// another replica's GET /v1/store/{kind}/{addr} route and (when used as
// the first tier of a diskless chain) pushes results to the matching
// PUT route. Every envelope received is re-verified — version, identity
// and payload checksum — before a byte of it is trusted, so a confused
// or corrupted peer degrades to misses, never to wrong results. A down
// or slow peer is an operational error the Chain (and the engine's
// persist path) treats as a miss: peer reads accelerate the fleet, they
// are never a correctness dependency.
type Peer struct {
	base   string
	client *http.Client

	hits      atomic.Int64
	misses    atomic.Int64
	errors    atomic.Int64
	puts      atomic.Int64
	putErrors atomic.Int64
	gets      atomic.Int64
	getNanos  atomic.Int64
}

// PeerStats reports one peer tier's cumulative behavior. GetSeconds is
// the summed wall-clock latency of all Gets (hits, misses and errors
// alike); GetSeconds/Gets is the mean peer fetch latency.
type PeerStats struct {
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Errors     int64   `json:"errors"`
	Puts       int64   `json:"puts"`
	PutErrors  int64   `json:"putErrors"`
	Gets       int64   `json:"gets"`
	GetSeconds float64 `json:"getSeconds"`
}

// NewPeer builds a peer backend for the replica at base (e.g.
// "http://replica-a:8372"). timeout bounds each fetch; ≤ 0 means 2s —
// a peer is only worth waiting for while it is faster than recomputing.
func NewPeer(base string, timeout time.Duration) (*Peer, error) {
	base = strings.TrimRight(strings.TrimSpace(base), "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("store: peer URL %q must start with http:// or https://", base)
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &Peer{base: base, client: &http.Client{Timeout: timeout}}, nil
}

// Name returns the peer's base URL (the metrics label).
func (p *Peer) Name() string { return p.base }

func (p *Peer) entryURL(kind, address string) string {
	return p.base + "/v1/store/" + kind + "/" + address
}

// stampTrace forwards the context's trace ID (when one is present and
// wire-safe) on an outbound peer request, so the peer's access log and
// recorder join this request to the originating trace fleet-wide.
func stampTrace(ctx context.Context, req *http.Request) {
	if id := obs.TraceID(ctx); obs.ValidTraceID(id) {
		req.Header.Set(obs.TraceHeader, id)
	}
}

// Get fetches (kind, key) from the peer. 404 is a plain miss; any
// transport failure, unexpected status, oversized body or envelope that
// fails re-verification is an error (counted, and reported so chains
// and the engine can tally it) — but never a hit. The request is bound
// to ctx (cancellation on top of the client timeout), carries the
// context's trace ID as X-RC-Trace, and contributes a "store.peer"
// span tagged with the peer URL — the cross-process hop a fleet trace
// hinges on.
func (p *Peer) Get(ctx context.Context, kind, key string) ([]byte, bool, error) {
	if !validKind(kind) {
		return nil, false, fmt.Errorf("store: invalid kind %q (want lowercase [a-z0-9-])", kind)
	}
	_, span := obs.StartSpan(ctx, "store.peer")
	span.SetAttr("peer", p.base)
	defer span.End()
	start := time.Now()
	defer func() {
		p.gets.Add(1)
		p.getNanos.Add(time.Since(start).Nanoseconds())
	}()
	fail := func(err error) ([]byte, bool, error) {
		p.errors.Add(1)
		span.MarkError()
		return nil, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.entryURL(kind, addr(kind, key)), nil)
	if err != nil {
		return fail(fmt.Errorf("store: peer %s: %w", p.base, err))
	}
	stampTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		return fail(fmt.Errorf("store: peer %s: %w", p.base, err))
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		p.misses.Add(1)
		span.SetAttr("hit", "false")
		return nil, false, nil
	default:
		return fail(fmt.Errorf("store: peer %s: unexpected status %d", p.base, resp.StatusCode))
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEnvelope+1))
	if err != nil {
		return fail(fmt.Errorf("store: peer %s: read body: %w", p.base, err))
	}
	if len(data) > maxPeerEnvelope {
		return fail(fmt.Errorf("store: peer %s: envelope exceeds %d bytes", p.base, maxPeerEnvelope))
	}
	// Checksum re-verified on receipt: trust nothing a wire delivered.
	e, err := decodeEnvelope(data)
	if err != nil || string(e.kind) != kind || string(e.key) != key {
		return fail(fmt.Errorf("store: peer %s served a corrupt or mismatched envelope for %s", p.base, kind))
	}
	p.hits.Add(1)
	span.SetAttr("hit", "true")
	return e.payload, true, nil
}

// Put ships (kind, key, payload) to the peer as a canonical envelope
// via PUT /v1/store/{kind}/{addr}. This is how a diskless worker (a
// chain with no local tier) contributes results back to the shared
// pool; the receiving replica re-verifies the envelope before storing.
func (p *Peer) Put(ctx context.Context, kind, key string, payload []byte) error {
	data, env, err := encodeEnvelope(kind, key, payload)
	if err != nil {
		return err
	}
	_, span := obs.StartSpan(ctx, "store.peer.put")
	span.SetAttr("peer", p.base)
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.entryURL(kind, addr(env.Kind, env.Key)), bytes.NewReader(data))
	if err != nil {
		p.putErrors.Add(1)
		span.MarkError()
		return fmt.Errorf("store: peer %s: %w", p.base, err)
	}
	req.Header.Set("Content-Type", "application/json")
	stampTrace(ctx, req)
	resp, err := p.client.Do(req)
	if err != nil {
		p.putErrors.Add(1)
		span.MarkError()
		return fmt.Errorf("store: peer %s: %w", p.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		p.putErrors.Add(1)
		span.MarkError()
		return fmt.Errorf("store: peer %s: put rejected with status %d", p.base, resp.StatusCode)
	}
	p.puts.Add(1)
	return nil
}

// Stats returns a snapshot of the peer's counters.
func (p *Peer) Stats() PeerStats {
	return PeerStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Errors:     p.errors.Load(),
		Puts:       p.puts.Load(),
		PutErrors:  p.putErrors.Load(),
		Gets:       p.gets.Load(),
		GetSeconds: float64(p.getNanos.Load()) / float64(time.Second),
	}
}
