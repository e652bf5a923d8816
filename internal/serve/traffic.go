package serve

// Traffic hardening: in-flight request coalescing, per-client rate
// limiting, and the batch classification endpoint. These are the
// defenses that keep a thundering herd of identical expensive queries
// (or one over-eager client) from multiplying engine load, and the
// bulk path that amortizes HTTP overhead across many classifications.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rcons/internal/spec"
	"rcons/internal/types"
)

// ---- request coalescing ----

// coalesced serves one expensive request through the server's
// singleflight group: concurrent requests whose keys match share a
// single computation, and every caller receives a byte-identical copy
// of the leader's encoded payload. A leader whose compute fails (its
// client hung up, the search errored) reports only to itself —
// waiting followers elect a new leader and recompute rather than
// inheriting the error, and a follower whose own context ends stops
// waiting immediately. compute runs under the context it is given: the
// leading request's context with its flight.lead span, so a re-elected
// leader runs under a live deadline and the work's spans nest under
// flight.lead.
//
// Keys are prefixed by the route, so equal parameter strings on
// different endpoints never collide. /v1/classify keys on the request
// itself (see classifyItemKey), not on any type fingerprint: responses
// embed concrete state/op labels (witness schedules, type names) and
// readability, which differ between requests whose tables share a
// fingerprint.
func (s *Server) coalesced(w http.ResponseWriter, r *http.Request, path, key string, compute func(ctx context.Context) ([]byte, error)) {
	payload, shared, err := s.flights.Do(r.Context(), path+"|"+key, compute)
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	if shared {
		s.m.coalesced.With(path).Inc()
	}
	writeRawJSON(w, http.StatusOK, payload)
}

// ---- per-client rate limiting ----

// rateLimiterMaxClients bounds the bucket table; past it, idle (fully
// refilled) buckets are pruned. A full bucket is indistinguishable
// from a brand-new one, so pruning never changes any client's outcome.
const rateLimiterMaxClients = 4096

// rateLimiter is a classic token bucket per client key: each request
// spends one token, tokens refill at rate/s up to burst. It deliberately
// charges a batch request one token — bulk endpoints are the sanctioned
// way to ask for more work per request.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	now     func() time.Time // test hook
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate, burst float64) *rateLimiter {
	return &rateLimiter{
		rate:    rate,
		burst:   burst,
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// allow spends one token from key's bucket. When the bucket is empty it
// returns false and how long until one token will have refilled.
func (l *rateLimiter) allow(key string) (bool, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= rateLimiterMaxClients {
			l.prune(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens = min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// prune drops fully-refilled buckets (callers holding l.mu).
func (l *rateLimiter) prune(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// rateLimited applies the per-client token bucket before h. Clients are
// keyed by remote host (the port changes per connection). A rejected
// request gets 429 with a Retry-After hint and the "limited" outcome —
// distinct from "shed" (503 at the in-flight cap): limited means THIS
// client is over its budget, shed means the SERVER is at capacity.
func (s *Server) rateLimited(h http.HandlerFunc) http.HandlerFunc {
	if s.limiter == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		if ok, retry := s.limiter.allow(host); !ok {
			markOutcome(w, "limited")
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(max(retry.Seconds(), 1)))))
			writeError(w, http.StatusTooManyRequests, "rate limit exceeded, retry later")
			return
		}
		h(w, r)
	}
}

// ---- batch classification ----

// batchMaxItems caps the types per batch request; large collections
// split into several requests (each still costs one rate-limit token).
const batchMaxItems = 256

// batchItem is one entry of a batch request: exactly one of Type (a
// built-in name) or Table (a custom transition table, the same JSON
// shape POST /v1/classify accepts) must be set.
type batchItem struct {
	Type  string          `json:"type,omitempty"`
	Table json.RawMessage `json:"table,omitempty"`
}

// batchRequest is a batch body, read by decodeBatchRequest; its json
// tags are what the reader matches (and what FuzzBatchRequest's
// json.Unmarshal oracle decodes).
type batchRequest struct {
	Limit int         `json:"limit"`
	Items []batchItem `json:"items"`
}

// batchResult reports one item's outcome: a classification, or the
// item's own error. A bad item never fails the batch — per-item errors
// are the point of the bulk endpoint.
type batchResult struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Classification carries the pre-encoded payload (the same bytes
	// the item memo and /v1/classify serve), embedded verbatim instead
	// of being re-marshaled per batch.
	Classification json.RawMessage `json:"classification,omitempty"`
}

// handleClassifyBatch classifies many types in one request:
//
//	POST /v1/classify/batch
//	{"limit": 4, "items": [{"type": "S_3"}, {"table": {...}}, ...]}
//
// Built-in names and custom tables mix freely. Items run concurrently
// on the engine's worker slots, so a batch of B types costs far less
// than B round trips; each item reports its own error or its
// classification (canonical fingerprint included).
func (s *Server) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	body, read := s.readBody(w, r)
	if !read {
		return
	}
	req, err := decodeBatchRequest(body, batchMaxItems)
	if errors.Is(err, errTooManyItems) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch exceeds this server's cap of %d items", batchMaxItems))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid batch request: %v", err))
		return
	}
	limit := req.Limit
	if limit == 0 {
		limit = min(6, s.cfg.maxLimit)
	}
	if limit < 2 || limit > s.cfg.maxLimit {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("limit must be in [2, %d], got %d", s.cfg.maxLimit, limit))
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: provide at least one item")
		return
	}

	// Resolve items first so malformed ones consume no engine time, then
	// classify the resolvable ones concurrently. Items already in the
	// encoded-classification memo are answered before parsing; the rest
	// go through ClassifyEach, which keeps per-item errors isolated: a
	// type a theorem rejects reports in its own slot without disturbing
	// its neighbors.
	results := make([]batchResult, len(req.Items))
	var ts []spec.Type
	var idx []int
	var keys []string
	for i, item := range req.Items {
		if item.Type != "" && item.Table != nil {
			results[i] = batchResult{Error: "set either type or table, not both"}
			continue
		}
		if item.Type == "" && item.Table == nil {
			results[i] = batchResult{Error: "item needs a type name or a table"}
			continue
		}
		key := classifyItemKey(item.Type, item.Table, limit)
		if payload, hit := s.itemGet(key); hit {
			results[i] = batchResult{OK: true, Classification: json.RawMessage(payload)}
			continue
		}
		var t spec.Type
		var err error
		if item.Type != "" {
			t, err = types.ByName(item.Type)
		} else {
			t, err = s.parseTable(item.Table)
		}
		if err != nil {
			results[i] = batchResult{Error: err.Error()}
			continue
		}
		ts = append(ts, t)
		idx = append(idx, i)
		keys = append(keys, key)
	}
	out, errs := s.eng.ClassifyEach(r.Context(), ts, limit)
	// The whole batch failing on the request's own context is a request-
	// level condition (deadline, disconnect), not per-item noise.
	if err := r.Context().Err(); err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	for j, i := range idx {
		if errs[j] != nil {
			results[i] = batchResult{Error: errs[j].Error()}
			continue
		}
		enc := s.encodeClassificationWithFP(out[j], ts[j], limit)
		payload, err := marshalJSON(enc)
		if err != nil {
			results[i] = batchResult{Error: err.Error()}
			continue
		}
		s.itemPut(keys[j], payload)
		results[i] = batchResult{OK: true, Classification: json.RawMessage(payload)}
	}
	// Assemble the response by hand: the item payloads are JSON we
	// marshaled ourselves, so splicing them verbatim skips a full
	// re-encode (and re-compaction) of what is by far the largest part
	// of the body. The envelope counters deliberately precede the items
	// array — clients that only want the tallies (rcload) can stop
	// parsing before the bulk. Every item's bytes are known before the
	// body is written, so the buffer grows once, to the body's size.
	const okPrefix = `{"ok":true,"classification":`
	items := make([][]byte, len(results))
	ok, size := 0, 64
	for i, res := range results {
		item := res.Classification
		if res.OK {
			ok++
			size += len(okPrefix) + len("}")
		} else {
			var err error
			if item, err = marshalJSON(res); err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
		}
		items[i] = bytes.TrimSuffix(item, []byte("\n"))
		size += len(items[i]) + len(",")
	}
	var buf bytes.Buffer
	buf.Grow(size)
	fmt.Fprintf(&buf, `{"limit":%d,"count":%d,"ok":%d,"items":[`, limit, len(results), ok)
	for i, item := range items {
		if i > 0 {
			buf.WriteByte(',')
		}
		if results[i].OK {
			buf.WriteString(okPrefix)
			buf.Write(item)
			buf.WriteByte('}')
		} else {
			buf.Write(item)
		}
	}
	buf.WriteString("]}\n")
	writeRawJSON(w, http.StatusOK, buf.Bytes())
}
