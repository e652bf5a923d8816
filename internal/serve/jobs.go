package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"rcons/internal/atlas"
	"rcons/internal/atlas/census"
	"rcons/internal/jobs"
	"rcons/internal/mc"
	"rcons/internal/types"
)

// The async job subsystem: work too heavy for a synchronous request
// deadline (census runs, deep model checks, zoo scans) is submitted
// once, executed on the manager's bounded pool, and polled by ID.
// Parameters are normalized (defaults applied, caps enforced) BEFORE
// the job ID is derived, so every equivalent request — explicit or
// defaulted, whatever the key order — coalesces onto the same job. With
// -store, finished results also answer resubmissions across restarts.

// jobSubmitRequest is the POST /v1/jobs body.
type jobSubmitRequest struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params"`
}

// censusJobParams / mcJobParams / zooJobParams are the canonical
// (fully-defaulted) parameter forms; their field order fixes the
// canonical JSON the job ID is derived from.
type censusJobParams struct {
	States  int   `json:"states"`
	Ops     int   `json:"ops"`
	Resps   int   `json:"resps"`
	Random  int   `json:"random"`
	Mutants int   `json:"mutants"`
	Seed    int64 `json:"seed"`
	Limit   int   `json:"limit"`
}

type mcJobParams struct {
	Target  string `json:"target"`
	N       int    `json:"n"`
	Depth   int    `json:"depth"`
	Crashes int    `json:"crashes"`
}

type zooJobParams struct {
	Limit int `json:"limit"`
}

// registerJobKinds installs the server's job kinds on its manager.
func (s *Server) registerJobKinds() {
	s.jobs.Register("census", s.censusJob)
	s.jobs.Register("mc", s.mcJob)
	s.jobs.Register("zoo", s.zooJob)
}

// normalizeJobParams validates raw parameters for kind and returns
// their canonical JSON. Every error is a client error (400).
func (s *Server) normalizeJobParams(kind string, raw json.RawMessage) (json.RawMessage, error) {
	if len(raw) == 0 {
		raw = json.RawMessage(`{}`)
	}
	decode := func(into any) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			return fmt.Errorf("invalid %s params: %w", kind, err)
		}
		return nil
	}
	bound := func(name string, v *int, def, lo, hi int) error {
		if *v == absentInt {
			*v = def
		}
		if *v < lo || *v > hi {
			return fmt.Errorf("%s must be in [%d, %d], got %d", name, lo, hi, *v)
		}
		return nil
	}
	switch kind {
	case "census":
		in := struct {
			States  int    `json:"states"`
			Ops     int    `json:"ops"`
			Resps   int    `json:"resps"`
			Random  int    `json:"random"`
			Mutants int    `json:"mutants"`
			Seed    *int64 `json:"seed"`
			Limit   int    `json:"limit"`
		}{States: absentInt, Ops: absentInt, Resps: absentInt, Random: absentInt, Mutants: absentInt, Limit: absentInt}
		if err := decode(&in); err != nil {
			return nil, err
		}
		p := censusJobParams{Seed: 1}
		if in.Seed != nil {
			p.Seed = *in.Seed
		}
		for _, f := range []struct {
			name        string
			dst, src    *int
			def, lo, hi int
		}{
			{"states", &p.States, &in.States, 2, 0, atlasMaxStates},
			{"ops", &p.Ops, &in.Ops, 2, 0, atlasMaxOps},
			{"resps", &p.Resps, &in.Resps, 1, 1, atlasMaxResps},
			{"random", &p.Random, &in.Random, 500, 0, atlasMaxRandom},
			{"mutants", &p.Mutants, &in.Mutants, 1, 0, atlasMaxMutants},
			{"limit", &p.Limit, &in.Limit, min(3, s.cfg.maxLimit), 2, min(atlasMaxLimit, s.cfg.maxLimit)},
		} {
			*f.dst = *f.src
			if err := bound(f.name, f.dst, f.def, f.lo, f.hi); err != nil {
				return nil, err
			}
		}
		if p.States > 0 && p.Ops > 0 {
			b := atlas.Bounds{States: p.States, Ops: p.Ops, Resps: p.Resps}
			if rc := b.RawCount(); rc > atlasMaxRaw {
				return nil, fmt.Errorf("bounds %s enumerate %d raw tables, above this server's cap of %d", b, rc, atlasMaxRaw)
			}
		} else if p.Random == 0 && p.Mutants == 0 {
			return nil, fmt.Errorf("nothing to census: set states/ops, random or mutants")
		}
		return json.Marshal(p)
	case "mc":
		in := struct {
			Target  string `json:"target"`
			N       int    `json:"n"`
			Depth   int    `json:"depth"`
			Crashes int    `json:"crashes"`
		}{N: absentInt, Depth: absentInt, Crashes: absentInt}
		if err := decode(&in); err != nil {
			return nil, err
		}
		if in.Target == "" {
			return nil, fmt.Errorf("missing target (see /v1/mc/targets)")
		}
		if mc.TargetDoc(in.Target) == "" {
			return nil, fmt.Errorf("unknown target %q (see /v1/mc/targets)", in.Target)
		}
		p := mcJobParams{Target: in.Target, N: in.N, Depth: in.Depth, Crashes: in.Crashes}
		if err := bound("n", &p.N, 2, 2, mcMaxN); err != nil {
			return nil, err
		}
		if err := bound("depth", &p.Depth, 8, 2, mcMaxDepth); err != nil {
			return nil, err
		}
		if err := bound("crashes", &p.Crashes, 1, 0, mcMaxCrashes); err != nil {
			return nil, err
		}
		if _, err := mc.TargetByName(p.Target, p.N); err != nil {
			return nil, err
		}
		return json.Marshal(p)
	case "zoo":
		in := struct {
			Limit int `json:"limit"`
		}{Limit: absentInt}
		if err := decode(&in); err != nil {
			return nil, err
		}
		p := zooJobParams{Limit: in.Limit}
		if err := bound("limit", &p.Limit, min(5, s.cfg.maxLimit), 2, s.cfg.maxLimit); err != nil {
			return nil, err
		}
		return json.Marshal(p)
	}
	return nil, fmt.Errorf("unknown job kind %q (want census, mc or zoo)", kind)
}

// absentInt marks integer fields the client did not send; no request
// cap reaches it, so it cannot collide with a real value.
const absentInt = -1 << 30

// ---- job handlers (run on the manager's worker pool) ----

func (s *Server) censusJob(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
	var p censusJobParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	o := census.Options{
		Random:        p.Random,
		MutantsPerZoo: p.Mutants,
		Seed:          p.Seed,
		Limit:         p.Limit,
		Workers:       s.cfg.workers,
		Engine:        s.eng,
		Progress:      s.progress,
	}
	if p.States > 0 && p.Ops > 0 {
		o.Bounds = atlas.Bounds{States: p.States, Ops: p.Ops, Resps: p.Resps}
	}
	if s.store != nil {
		o.Store = s.store
	}
	a, err := census.Run(ctx, o)
	if err != nil {
		return nil, err
	}
	s.recordCensusRun(a)
	return json.Marshal(a.Summary)
}

func (s *Server) mcJob(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
	var p mcJobParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	tgt, err := mc.TargetByName(p.Target, p.N)
	if err != nil {
		return nil, err
	}
	res, err := mc.Check(ctx, tgt, mc.Options{
		MaxDepth:    p.Depth,
		CrashBudget: p.Crashes,
		NodeBudget:  mcNodeBudget,
		Workers:     s.cfg.workers,
		Progress:    s.progress,
	})
	if err != nil {
		return nil, err
	}
	s.recordMCRun(res)
	return json.Marshal(map[string]any{
		"target":         res.Target,
		"n":              p.N,
		"model":          res.Model.String(),
		"depth":          res.MaxDepth,
		"crashes":        res.CrashBudget,
		"safe":           res.Safe,
		"exhaustive":     res.Exhaustive,
		"complete":       res.Complete,
		"stats":          res.Stats,
		"counterexample": encodeCounterexample(res.CE),
	})
}

func (s *Server) zooJob(ctx context.Context, raw json.RawMessage) (json.RawMessage, error) {
	var p zooJobParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	cs, err := s.eng.Scan(ctx, p.Limit)
	if err != nil {
		return nil, err
	}
	// Scan classifies types.Zoo() in order; stamp each entry's canonical
	// fingerprint so job results match the sync /v1/zoo payloads.
	zoo := types.Zoo()
	results := make([]classificationJSON, len(cs))
	for i, c := range cs {
		results[i] = s.encodeClassificationWithFP(c, zoo[i], p.Limit)
	}
	return json.Marshal(map[string]any{
		"limit":   p.Limit,
		"count":   len(results),
		"results": results,
	})
}

// ---- HTTP endpoints ----

// handleJobSubmit accepts {"kind": "...", "params": {...}} and returns
// the job snapshot: 202 for a newly queued execution, 200 when the
// submission coalesced onto an existing job or a stored result.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req jobSubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid job request: %v", err))
		return
	}
	canon, err := s.normalizeJobParams(req.Kind, req.Params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	info, existing, err := s.jobs.Submit(r.Context(), req.Kind, canon)
	switch {
	case err == nil:
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "job queue full, retry later")
		return
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	default:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+info.ID)
	status := http.StatusAccepted
	if existing {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job (it may have been evicted)")
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List()
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(list),
		"jobs":  list,
		"kinds": s.jobs.Kinds(),
	})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, "no such job (it may have been evicted)")
	case errors.Is(err, jobs.ErrTerminal):
		writeError(w, http.StatusConflict, fmt.Sprintf("job already %s", info.State))
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, info)
	}
}
