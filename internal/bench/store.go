package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"rcons/internal/jobs"
	"rcons/internal/store"
)

// The persistence/async benchmarks measure the store and job subsystem
// the same way the engine and service use them: small JSON payloads,
// fingerprint-shaped keys, one manager reused across submissions.

// withTempStore opens a store in a fresh temp directory and cleans up
// after the measurement.
func withTempStore(fn func(*store.Store) (Metrics, error)) (Metrics, error) {
	dir, err := os.MkdirTemp("", "rcbench-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return fn(st)
}

// storeGetHitRunner measures the hot-path read: the entry sits in the
// LRU front, so this is the steady-state cost a warm rcserve pays per
// memoized lookup.
func storeGetHitRunner() func(int) (Metrics, error) {
	return func(iters int) (Metrics, error) {
		return withTempStore(func(st *store.Store) (Metrics, error) {
			payload := []byte(`{"found":true,"witness":{"q0":"q1","teams":[0,1,0],"ops":["a","b","a"]}}`)
			if err := st.Put(context.Background(), "search", "bench-key", payload); err != nil {
				return nil, err
			}
			for i := 0; i < iters; i++ {
				if _, ok, err := st.Get(context.Background(), "search", "bench-key"); !ok || err != nil {
					return nil, fmt.Errorf("store/get-hit: ok=%v err=%v", ok, err)
				}
			}
			return nil, nil
		})
	}
}

// storePutRunner measures the full crash-safe write path — one frame
// appended to the writer's pack, then fsync — with a distinct key per
// iteration (the realistic census/job write pattern; identical keys
// would short-circuit into the idempotence no-op).
func storePutRunner() func(int) (Metrics, error) {
	return func(iters int) (Metrics, error) {
		return withTempStore(func(st *store.Store) (Metrics, error) {
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("bench-key-%08d", i)
				payload := []byte(fmt.Sprintf(`{"row":%d}`, i))
				if err := st.Put(context.Background(), "census-row", key, payload); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
	}
}

// storeEvictRunner measures a budgeted put with eviction riding along:
// the store is held right at its byte budget, so every distinct-key
// write also pays one size-aware LRU eviction (victim selection plus
// unlink) — the steady-state write cost of a full store under
// -store-budget.
func storeEvictRunner() func(int) (Metrics, error) {
	return func(iters int) (Metrics, error) {
		dir, err := os.MkdirTemp("", "rcbench-evict-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		// Budget sized to ~64 entries of the fixed-shape payload below,
		// so the store saturates almost immediately and the measured loop
		// is all evict-on-put.
		payload := []byte(`{"row":1234567,"pad":"xxxxxxxxxxxxxxxx"}`)
		st, err := store.Open(dir, store.Options{CacheEntries: -1, BudgetBytes: 64 * 256})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		// Pre-fill past the budget so every measured put evicts.
		for i := 0; i < 100; i++ {
			if err := st.Put(context.Background(), "census-row", fmt.Sprintf("prefill-%08d", i), payload); err != nil {
				return nil, err
			}
		}
		if st.Stats().DiskEvictions == 0 {
			return nil, fmt.Errorf("store/evict: budget never saturated in pre-fill")
		}
		before := st.Stats().DiskEvictions
		for i := 0; i < iters; i++ {
			key := fmt.Sprintf("bench-key-%08d", i)
			if err := st.Put(context.Background(), "census-row", key, payload); err != nil {
				return nil, err
			}
		}
		if st.Stats().DiskEvictions == before {
			return nil, fmt.Errorf("store/evict: measured loop never evicted")
		}
		return nil, nil
	}
}

// storePeerHitRunner measures the full peer read-through round-trip on
// a warm peer: HTTP fetch from an in-process replica (served straight
// off GetRaw) plus the receiver-side envelope re-verification. This is
// the per-result cost a cold replica pays to warm itself off the fleet
// instead of recomputing.
func storePeerHitRunner() func(int) (Metrics, error) {
	return func(iters int) (Metrics, error) {
		return withTempStore(func(st *store.Store) (Metrics, error) {
			payload := []byte(`{"found":true,"witness":{"q0":"q1","teams":[0,1,0],"ops":["a","b","a"]}}`)
			if err := st.Put(context.Background(), "search", "bench-key", payload); err != nil {
				return nil, err
			}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Minimal stand-in for rcserve's GET /v1/store/{kind}/{addr}.
				parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/store/"), "/")
				if len(parts) != 2 {
					http.NotFound(w, r)
					return
				}
				raw, ok, err := st.GetRaw(parts[0], parts[1])
				if err != nil || !ok {
					http.NotFound(w, r)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				w.Write(raw)
			}))
			defer srv.Close()
			p, err := store.NewPeer(srv.URL, 5*time.Second)
			if err != nil {
				return nil, err
			}
			for i := 0; i < iters; i++ {
				if _, ok, err := p.Get(context.Background(), "search", "bench-key"); !ok || err != nil {
					return nil, fmt.Errorf("store/peer-hit: ok=%v err=%v", ok, err)
				}
			}
			return nil, nil
		})
	}
}

// jobsSubmitPollRunner measures the manager's full round-trip overhead
// on a trivial handler: submit a distinct job, spin on Get until it is
// done. Retention covers the whole run so eviction churn is not part of
// the measured path.
func jobsSubmitPollRunner() func(int) (Metrics, error) {
	return func(iters int) (Metrics, error) {
		m := jobs.New(jobs.Options{Workers: 1, Queue: 16, Retention: iters + 1})
		defer func() {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_ = m.Drain(ctx)
		}()
		m.Register("noop", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
			return json.RawMessage(`{"ok":true}`), nil
		})
		for i := 0; i < iters; i++ {
			info, _, err := m.Submit(context.Background(), "noop", json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)))
			if err != nil {
				return nil, err
			}
			for {
				got, ok := m.Get(info.ID)
				if !ok {
					return nil, fmt.Errorf("jobs/submit-poll: job %s vanished", info.ID)
				}
				if got.State == jobs.StateDone {
					break
				}
				if got.State.Terminal() {
					return nil, fmt.Errorf("jobs/submit-poll: job ended %s: %s", got.State, got.Error)
				}
				runtime.Gosched()
			}
		}
		return nil, nil
	}
}
