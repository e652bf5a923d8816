package engine

import (
	"context"
	"encoding/json"
	"strconv"
	"sync/atomic"

	"rcons/internal/checker"
	"rcons/internal/jsonread"
	"rcons/internal/obs"
	"rcons/internal/spec"
)

// Persist is the narrow persistent-cache surface the engine writes
// search results through. Every store.Backend satisfies it —
// *store.Store (local disk), *store.Peer (read-through to another
// replica's /v1/store routes) and *store.Chain (tiered composition with
// write-back healing) — and the engine deliberately depends only on
// this interface so the checker core stays storage-free and tests can
// stub persistence.
//
// Get's ok=false means "not stored" (never an integrity failure — the
// store quarantines locally and re-verifies peer envelopes on receipt);
// errors are operational (I/O, a down or slow peer) and the engine
// treats them as misses and recomputes. A persist hit costs zero search
// work; a result fetched from a warm peer is healed into the local
// tier by store.Chain, so later reads stay local.
// The context is passed through so peer-backed stores can propagate
// the request's trace ID over the wire and hang their tier spans off
// the search's span.
type Persist interface {
	Get(ctx context.Context, kind, key string) ([]byte, bool, error)
	Put(ctx context.Context, kind, key string, payload []byte) error
}

// persistKind namespaces search results inside the shared store.
const persistKind = "search"

// persistStats are the engine's store-interaction counters.
type persistStats struct {
	hits, misses, errors atomic.Int64
}

// persistKey names one search result: the exact type fingerprint (a
// hex SHA-256) qualified by property and level. Deterministic, so every
// binary sharing a store directory addresses the same computation at
// the same key.
func persistKey(fp string, p Property, n int) string {
	return fp + "/" + p.String() + "/" + strconv.Itoa(n)
}

// persistedWitness / persistedSearch are the stored JSON form of a
// search outcome (a *checker.Witness, nil when none exists). A stored
// found=false is as valuable as a witness: it is the exhaustive proof
// of absence, which is the expensive half.
type persistedWitness struct {
	Q0    string   `json:"q0"`
	Teams []int    `json:"teams"`
	Ops   []string `json:"ops"`
}

type persistedSearch struct {
	Found   bool              `json:"found"`
	Witness *persistedWitness `json:"witness,omitempty"`
}

func encodeSearchResult(w *checker.Witness) ([]byte, error) {
	out := persistedSearch{Found: w != nil}
	if w != nil {
		ops := make([]string, len(w.Ops))
		for i, op := range w.Ops {
			ops[i] = string(op)
		}
		out.Witness = &persistedWitness{
			Q0:    string(w.Q0),
			Teams: append([]int{}, w.Teams...),
			Ops:   ops,
		}
	}
	return json.Marshal(out)
}

// decodeSearchResult parses a stored search outcome of a search at n
// processes. ok is false for an entry json.Unmarshal into a
// persistedSearch would reject, for found:true without a witness, and
// for a witness that is not n processes on TeamA and TeamB: a checksum
// proves only that a store or peer kept what some writer wrote, so a
// misfiled or malformed witness is a miss.
func decodeSearchResult(data []byte, n int) (w *checker.Witness, ok bool) {
	found, w, err := readSearchResult(data)
	if err != nil {
		return nil, false
	}
	if !found {
		return nil, true
	}
	if w == nil || len(w.Teams) != n || len(w.Ops) != n {
		return nil, false
	}
	for _, t := range w.Teams {
		if t != checker.TeamA && t != checker.TeamB {
			return nil, false
		}
	}
	return w, true
}

// readSearchResult decodes a persistedSearch in one pass, straight into
// a checker.Witness, accepting and decoding what json.Unmarshal does
// (FuzzSearchResult holds it to that).
func readSearchResult(data []byte) (found bool, w *checker.Witness, err error) {
	r := jsonread.NewReader(data)
	witness := func(key []byte) error {
		switch {
		case jsonread.FieldIs(key, "q0"):
			s, ok, err := r.String(`"q0"`)
			if ok {
				w.Q0 = spec.State(s)
			}
			return err
		case jsonread.FieldIs(key, "teams"):
			return jsonread.Slice(&r, &w.Teams, `"teams"`, func(_ int, v *int) error {
				t, ok, err := r.Int("a team")
				if ok {
					*v = t
				}
				return err
			})
		case jsonread.FieldIs(key, "ops"):
			return jsonread.Slice(&r, &w.Ops, `"ops"`, func(_ int, v *spec.Op) error {
				s, ok, err := r.String("an op")
				if ok {
					*v = spec.Op(s)
				}
				return err
			})
		}
		return r.Skip()
	}
	err = r.Struct("a search result", func(key []byte) error {
		switch {
		case jsonread.FieldIs(key, "found"):
			b, ok, err := r.Bool(`"found"`)
			if ok {
				found = b
			}
			return err
		case jsonread.FieldIs(key, "witness"):
			switch r.Peek() {
			case 'n':
				w = nil
				return r.Literal("null")
			case '{':
				if w == nil {
					w = &checker.Witness{}
				}
				return r.Object(witness)
			}
			return r.WrongType(`"witness"`, "an object")
		}
		return r.Skip()
	})
	if err == nil {
		err = r.End()
	}
	return found, w, err
}

// persistGet consults the store for a previously computed search
// result. Undecodable or erroring entries are treated as misses; the
// search simply recomputes and persistPut heals the entry.
func (e *Engine) persistGet(ctx context.Context, fp string, p Property, n int) (*checker.Witness, bool) {
	ctx, span := obs.StartSpan(ctx, "engine.persist")
	defer span.End()
	data, ok, err := e.persist.Get(ctx, persistKind, persistKey(fp, p, n))
	if err != nil {
		e.pstats.errors.Add(1)
		span.MarkError()
		return nil, false
	}
	if !ok {
		e.pstats.misses.Add(1)
		span.SetAttr("hit", "false")
		return nil, false
	}
	w, ok := decodeSearchResult(data, n)
	if !ok {
		e.pstats.misses.Add(1)
		span.SetAttr("hit", "false")
		return nil, false
	}
	e.pstats.hits.Add(1)
	span.SetAttr("hit", "true")
	return w, true
}

// persistPut writes a computed search result through to the store.
// Failures are counted but never fail the search: persistence is an
// accelerator, not a correctness dependency.
func (e *Engine) persistPut(ctx context.Context, fp string, p Property, n int, w *checker.Witness) {
	data, err := encodeSearchResult(w)
	if err != nil {
		e.pstats.errors.Add(1)
		return
	}
	if err := e.persist.Put(ctx, persistKind, persistKey(fp, p, n), data); err != nil {
		e.pstats.errors.Add(1)
	}
}
