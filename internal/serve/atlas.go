package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"

	"rcons/internal/atlas"
	"rcons/internal/atlas/census"
)

// Atlas request caps: a census classifies thousands of generated types
// inside one request, so the per-request universe is kept small and the
// summaries are memoized (census artifacts are deterministic, so the
// cache never serves a stale answer).
const (
	atlasMaxStates  = 3
	atlasMaxOps     = 3
	atlasMaxResps   = 2
	atlasMaxRaw     = 30_000
	atlasMaxRandom  = 2_000
	atlasMaxMutants = 2
	atlasMaxLimit   = 4

	atlasTypeMaxStates = 5
	atlasTypeMaxOps    = 4
	atlasTypeMaxResps  = 4

	atlasCacheCap = 256
)

// handleAtlas runs (or serves from cache) a small census and returns
// its summary: band histograms, zoo comparison, novel bands and the
// extremal gallery — everything in the artifact except the per-type
// rows. states=0 or ops=0 skips the enumeration stage (random-only or
// mutant-only censuses).
//
//	GET /v1/atlas?states=2&ops=2&resps=2&random=500&mutants=1&seed=1&limit=3
func (s *Server) handleAtlas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	states, ok := s.boundedParam(w, r, "states", 2, 0, atlasMaxStates)
	if !ok {
		return
	}
	ops, ok := s.boundedParam(w, r, "ops", 2, 0, atlasMaxOps)
	if !ok {
		return
	}
	resps, ok := s.boundedParam(w, r, "resps", 1, 1, atlasMaxResps)
	if !ok {
		return
	}
	random, ok := s.boundedParam(w, r, "random", 500, 0, atlasMaxRandom)
	if !ok {
		return
	}
	mutants, ok := s.boundedParam(w, r, "mutants", 1, 0, atlasMaxMutants)
	if !ok {
		return
	}
	limit, ok := s.boundedParam(w, r, "limit", 3, 2, min(atlasMaxLimit, s.cfg.maxLimit))
	if !ok {
		return
	}
	seed, ok := s.seedParam(w, r)
	if !ok {
		return
	}
	var bounds atlas.Bounds
	if states > 0 && ops > 0 {
		bounds = atlas.Bounds{States: states, Ops: ops, Resps: resps}
		if rc := bounds.RawCount(); rc > atlasMaxRaw {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("bounds %s enumerate %d raw tables, above this server's cap of %d", bounds, rc, atlasMaxRaw))
			return
		}
	}
	if random == 0 && mutants == 0 && bounds == (atlas.Bounds{}) {
		writeError(w, http.StatusBadRequest, "nothing to census: set states/ops, random or mutants")
		return
	}

	// Serve from cache, with in-flight dedup through the server-wide
	// coalescing group: a census costs seconds of CPU, so concurrent
	// cold requests for the same parameters share one computation
	// instead of multiplying the load.
	key := fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d", states, ops, resps, random, mutants, limit, seed)
	if cached, hit := s.atlasCache.Get(key); hit {
		writeRawJSON(w, http.StatusOK, cached)
		return
	}
	s.coalesced(w, r, "/v1/atlas", key, func(ctx context.Context) ([]byte, error) {
		a, err := census.Run(ctx, census.Options{
			Bounds:        bounds,
			Random:        random,
			MutantsPerZoo: mutants,
			Seed:          seed,
			Limit:         limit,
			Workers:       s.cfg.workers,
			Engine:        s.eng,
			Progress:      s.progress,
		})
		if err != nil {
			return nil, err
		}
		s.recordCensusRun(a)
		payload, err := json.Marshal(a.Summary)
		if err != nil {
			return nil, err
		}
		// Only deterministic (timeout-free) summaries are cacheable: a
		// census degraded by per-type timeouts under load must not be
		// served forever to an idle server.
		if len(a.Skipped) == 0 {
			s.atlasCache.Put(key, payload)
		}
		return payload, nil
	})
}

// handleAtlasType generates one seeded random table and classifies it —
// "show me type #seed of the (states, ops, resps) universe":
//
//	GET /v1/atlas/type?seed=42&states=3&ops=2&resps=2&limit=4
//
// The response carries the full transition table (re-POSTable to
// /v1/classify), the atlas canonical key, and the classification. It
// is a pure function of the parameters, so repeats are served from the
// response memo.
func (s *Server) handleAtlasType(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	states, ok := s.boundedParam(w, r, "states", 3, 1, atlasTypeMaxStates)
	if !ok {
		return
	}
	ops, ok := s.boundedParam(w, r, "ops", 2, 1, atlasTypeMaxOps)
	if !ok {
		return
	}
	resps, ok := s.boundedParam(w, r, "resps", 2, 1, atlasTypeMaxResps)
	if !ok {
		return
	}
	limit, ok := s.intParam(w, r, "limit", 4)
	if !ok {
		return
	}
	seed, ok := s.seedParam(w, r)
	if !ok {
		return
	}
	key := fmt.Sprintf("a|%d|%d|%d|%d|%d", seed, states, ops, resps, limit)
	if payload, hit := s.itemGet(key); hit {
		writeRawJSON(w, http.StatusOK, payload)
		return
	}
	t := atlas.Random(rand.New(rand.NewSource(seed)), states, ops, resps)
	canon, canonKey, canonOK := t.CanonicalWithKey()
	if canonOK {
		t = canon.WithLabel("atlas:" + canonKey)
	}
	c, err := s.eng.Classify(r.Context(), t, limit)
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	payload, err := marshalJSON(map[string]any{
		"seed":           seed,
		"dims":           t.Dims(),
		"key":            canonKey,
		"table":          t.Custom(),
		"classification": s.encodeClassificationWithFP(c, t, limit),
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.itemPut(key, payload)
	writeRawJSON(w, http.StatusOK, payload)
}

// seedParam parses the optional int64 seed parameter (default 1).
func (s *Server) seedParam(w http.ResponseWriter, r *http.Request) (int64, bool) {
	raw := r.URL.Query().Get("seed")
	if raw == "" {
		return 1, true
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "seed must be a 64-bit integer")
		return 0, false
	}
	return v, true
}
