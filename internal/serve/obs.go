package serve

// Telemetry wiring: every rcserve instance owns one obs.Registry. HTTP
// middleware feeds the rc_http_* series directly; the engine's
// classification memo, persistent store and job manager are re-published through
// func-backed metrics that sample each subsystem's own Stats() atomics
// at collection time — the subsystem counter stays the single source of
// truth, and /healthz (rebuilt from the same registry reads) can never
// drift from /metrics.

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"rcons/internal/atlas/census"
	"rcons/internal/engine"
	"rcons/internal/jobs"
	"rcons/internal/mc"
	"rcons/internal/obs"
	"rcons/internal/store"
)

// metrics holds the hot-path handles the middleware and job handlers
// update directly (func-backed series need no handles).
type metrics struct {
	requests   *obs.CounterVec // rc_http_requests_total{method,path,code}
	latency    *obs.HistogramVec
	stage      *obs.HistogramVec // rc_stage_duration_seconds{stage}
	inFlight   *obs.Gauge
	shed       *obs.CounterVec
	coalesced  *obs.CounterVec
	limited    *obs.CounterVec
	cancelled  *obs.CounterVec
	panics     *obs.CounterVec // rc_http_panics_total{path}
	mcRuns     *obs.Counter
	mcNodes    *obs.Counter
	mcSwarm    *obs.Counter
	censusRuns *obs.Counter
	censusRows *obs.Counter
}

// setupMetrics registers every rcserve metric family on s.reg. Called
// once from newServer, after engine/store/jobs exist.
func (s *Server) setupMetrics() {
	r := s.reg
	s.m = metrics{
		requests: r.Counter("rc_http_requests_total",
			"HTTP requests served, by method, route and status code.",
			"method", "path", "code"),
		latency: r.Histogram("rc_http_request_duration_seconds",
			"HTTP request latency in seconds, by route.", nil, "path"),
		stage: r.Histogram("rc_stage_duration_seconds",
			"Span duration in seconds by stage (span name), fed by the tracer.",
			// Stages go well below HTTP latencies (a memo lookup is
			// sub-microsecond), so the buckets start two decades finer
			// than the request histogram's.
			[]float64{1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10},
			"stage"),
		inFlight: r.Gauge("rc_http_in_flight",
			"HTTP requests currently being served.").With(),
		shed: r.Counter("rc_http_shed_total",
			"Requests shed with 503 at the in-flight cap, by route.", "path"),
		coalesced: r.Counter("rc_http_coalesced_total",
			"Requests served a payload shared with a concurrent identical request, by route.", "path"),
		limited: r.Counter("rc_http_rate_limited_total",
			"Requests rejected with 429 by the per-client rate limiter, by route.", "path"),
		cancelled: r.Counter("rc_http_client_cancelled_total",
			"Requests abandoned by the client before completion, by route.", "path"),
		panics: r.Counter("rc_http_panics_total",
			"Handler panics recovered by the middleware, by route.", "path"),
		mcRuns: r.Counter("rc_mc_runs_total",
			"Model-checker runs completed (sync requests and jobs).").With(),
		mcNodes: r.Counter("rc_mc_nodes_total",
			"Schedule prefixes executed across all model-checker runs.").With(),
		mcSwarm: r.Counter("rc_mc_swarm_runs_total",
			"Randomized swarm schedules executed across all runs.").With(),
		censusRuns: r.Counter("rc_census_runs_total",
			"Census runs completed (sync requests and jobs).").With(),
		censusRows: r.Counter("rc_census_rows_total",
			"Census rows produced across all runs.").With(),
	}

	// Every span End feeds the stage histogram, so per-stage latency is
	// visible on /metrics even when the recorder has rotated the trace
	// out. Span names are the bounded stage vocabulary.
	s.tracer.SetStageObserver(func(stage string, seconds float64) {
		s.m.stage.With(stage).Observe(seconds)
	})

	// Engine classification + persistent-store counters.
	eng := s.eng
	ctrf := func(name, help string, f func(engine.CacheStats) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(f(eng.Stats())) })
	}
	ctrf("rc_engine_classifications_total", "Classifications the engine derived.",
		func(c engine.CacheStats) int64 { return c.Classifications })
	ctrf("rc_engine_persist_hits_total", "Engine searches answered by the persistent store.",
		func(c engine.CacheStats) int64 { return c.PersistHits })
	ctrf("rc_engine_persist_misses_total", "Engine searches the persistent store could not answer.",
		func(c engine.CacheStats) int64 { return c.PersistMisses })
	ctrf("rc_engine_persist_errors_total", "Engine persistent-store errors.",
		func(c engine.CacheStats) int64 { return c.PersistErrors })

	// Job-manager lifecycle counters and queue gauges.
	jm := s.jobs
	jctr := func(name, help string, f func(jobs.Stats) int64) {
		r.CounterFunc(name, help, func() float64 { return float64(f(jm.Stats())) })
	}
	jctr("rc_jobs_done_total", "Jobs finished successfully.",
		func(j jobs.Stats) int64 { return j.Done })
	jctr("rc_jobs_failed_total", "Jobs that failed.",
		func(j jobs.Stats) int64 { return j.Failed })
	jctr("rc_jobs_cancelled_total", "Jobs cancelled.",
		func(j jobs.Stats) int64 { return j.Cancelled })
	jctr("rc_jobs_submitted_total", "Job executions enqueued.",
		func(j jobs.Stats) int64 { return j.Submitted })
	jctr("rc_jobs_coalesced_total", "Submissions coalesced onto a live job.",
		func(j jobs.Stats) int64 { return j.Coalesced })
	jctr("rc_jobs_store_hits_total", "Submissions answered from the persistent store.",
		func(j jobs.Stats) int64 { return j.StoreHits })
	jctr("rc_jobs_evicted_total", "Terminal jobs evicted past the retention cap.",
		func(j jobs.Stats) int64 { return j.Evicted })
	jg := func(name, help string, f func(jobs.Stats) int) {
		r.GaugeFunc(name, help, func() float64 { return float64(f(jm.Stats())) })
	}
	jg("rc_jobs_queued", "Jobs currently queued.", func(j jobs.Stats) int { return j.Queued })
	jg("rc_jobs_running", "Jobs currently running.", func(j jobs.Stats) int { return j.Running })
	jg("rc_jobs_workers", "Configured job workers.", func(j jobs.Stats) int { return j.Workers })
	jg("rc_jobs_queue_cap", "Configured job queue capacity.", func(j jobs.Stats) int { return j.QueueCap })

	// Content-addressed store counters (only with -store).
	if st := s.store; st != nil {
		r.CounterFunc("rc_store_hits_total", "Store gets served from disk.",
			func() float64 { return float64(st.Stats().DiskHits) }, "tier", "disk")
		sctr := func(name, help string, f func(store.Stats) int64) {
			r.CounterFunc(name, help, func() float64 { return float64(f(st.Stats())) })
		}
		sctr("rc_store_misses_total", "Store gets that found nothing.",
			func(t store.Stats) int64 { return t.Misses })
		sctr("rc_store_puts_total", "Store puts that wrote an entry.",
			func(t store.Stats) int64 { return t.Puts })
		sctr("rc_store_put_noops_total", "Store puts skipped as identical.",
			func(t store.Stats) int64 { return t.PutNoops })
		sctr("rc_store_quarantined_total", "Corrupt store entries quarantined.",
			func(t store.Stats) int64 { return t.Quarantined })
		sctr("rc_store_disk_evictions_total", "Records tombstoned to respect the disk budget.",
			func(t store.Stats) int64 { return t.DiskEvictions })
		sctr("rc_store_compactions_total", "Completed store compaction passes.",
			func(t store.Stats) int64 { return t.Compactions })
		r.GaugeFunc("rc_store_entries", "Valid entries on disk.",
			func() float64 { return float64(st.Stats().Entries) })
		r.GaugeFunc("rc_store_bytes", "Bytes of valid entries on disk.",
			func() float64 { return float64(st.Stats().Bytes) })
		r.GaugeFunc("rc_store_budget_bytes", "Configured store disk budget in bytes (0 = unlimited).",
			func() float64 { return float64(st.Budget()) })
	}

	// Peer read-through tiers (one labeled series set per -store-peer).
	for _, p := range s.peers {
		pctr := func(name, help string, f func(store.PeerStats) int64) {
			r.CounterFunc(name, help,
				func() float64 { return float64(f(p.Stats())) }, "peer", p.Name())
		}
		pctr("rc_store_peer_hits_total", "Peer store fetches that returned a verified entry.",
			func(t store.PeerStats) int64 { return t.Hits })
		pctr("rc_store_peer_misses_total", "Peer store fetches answered 404.",
			func(t store.PeerStats) int64 { return t.Misses })
		pctr("rc_store_peer_errors_total", "Peer store fetches that failed (down, slow or corrupt peer).",
			func(t store.PeerStats) int64 { return t.Errors })
		pctr("rc_store_peer_puts_total", "Entries pushed to the peer.",
			func(t store.PeerStats) int64 { return t.Puts })
		pctr("rc_store_peer_put_errors_total", "Entry pushes the peer rejected or that failed in transit.",
			func(t store.PeerStats) int64 { return t.PutErrors })
		pctr("rc_store_peer_gets_total", "Peer store fetches attempted.",
			func(t store.PeerStats) int64 { return t.Gets })
		r.CounterFunc("rc_store_peer_latency_seconds_total",
			"Summed wall-clock seconds spent on peer store fetches.",
			func() float64 { return p.Stats().GetSeconds }, "peer", p.Name())
	}
}

// recordMCRun folds one finished model-checker run into the cumulative
// rc_mc_* counters (sync /v1/mc requests and async mc jobs alike).
func (s *Server) recordMCRun(res *mc.Result) {
	s.m.mcRuns.Inc()
	s.m.mcNodes.Add(int64(res.Stats.Nodes))
	s.m.mcSwarm.Add(int64(res.Stats.SwarmRuns))
}

// recordCensusRun folds one finished census into the rc_census_*
// counters (sync /v1/atlas requests and async census jobs alike).
func (s *Server) recordCensusRun(a *census.Artifact) {
	s.m.censusRuns.Inc()
	s.m.censusRows.Add(int64(a.Types))
}

// Registry-backed views of the subsystem stats, consumed by /healthz.
// Rebuilding the exact Stats structs from Registry.Value reads keeps
// the JSON shape byte-compatible with the pre-registry handler while
// guaranteeing /healthz and /metrics expose the same numbers — both
// flow through the same func-backed series.

func (s *Server) cacheStatsFromRegistry() engine.CacheStats {
	v := s.reg.Value
	return engine.CacheStats{
		Classifications: int64(v("rc_engine_classifications_total")),
		PersistHits:     int64(v("rc_engine_persist_hits_total")),
		PersistMisses:   int64(v("rc_engine_persist_misses_total")),
		PersistErrors:   int64(v("rc_engine_persist_errors_total")),
	}
}

func (s *Server) jobsStatsFromRegistry() jobs.Stats {
	v := s.reg.Value
	return jobs.Stats{
		Workers:   int(v("rc_jobs_workers")),
		QueueCap:  int(v("rc_jobs_queue_cap")),
		Queued:    int(v("rc_jobs_queued")),
		Running:   int(v("rc_jobs_running")),
		Done:      int64(v("rc_jobs_done_total")),
		Failed:    int64(v("rc_jobs_failed_total")),
		Cancelled: int64(v("rc_jobs_cancelled_total")),
		Submitted: int64(v("rc_jobs_submitted_total")),
		Coalesced: int64(v("rc_jobs_coalesced_total")),
		StoreHits: int64(v("rc_jobs_store_hits_total")),
		Evicted:   int64(v("rc_jobs_evicted_total")),
	}
}

func (s *Server) storeStatsFromRegistry() store.Stats {
	v := s.reg.Value
	return store.Stats{
		Entries:       int64(v("rc_store_entries")),
		Bytes:         int64(v("rc_store_bytes")),
		DiskHits:      int64(v("rc_store_hits_total", "disk")),
		Misses:        int64(v("rc_store_misses_total")),
		Puts:          int64(v("rc_store_puts_total")),
		PutNoops:      int64(v("rc_store_put_noops_total")),
		DiskEvictions: int64(v("rc_store_disk_evictions_total")),
		Quarantined:   int64(v("rc_store_quarantined_total")),
		Compactions:   int64(v("rc_store_compactions_total")),
	}
}

// peerStatsFromRegistry rebuilds each -store-peer tier's stats from the
// registry's labeled series, keyed by peer base URL.
func (s *Server) peerStatsFromRegistry() map[string]store.PeerStats {
	v := s.reg.Value
	out := make(map[string]store.PeerStats, len(s.peers))
	for _, p := range s.peers {
		name := p.Name()
		out[name] = store.PeerStats{
			Hits:       int64(v("rc_store_peer_hits_total", name)),
			Misses:     int64(v("rc_store_peer_misses_total", name)),
			Errors:     int64(v("rc_store_peer_errors_total", name)),
			Puts:       int64(v("rc_store_peer_puts_total", name)),
			PutErrors:  int64(v("rc_store_peer_put_errors_total", name)),
			Gets:       int64(v("rc_store_peer_gets_total", name)),
			GetSeconds: v("rc_store_peer_latency_seconds_total", name),
		}
	}
	return out
}

// statusWriter captures the response status plus the request's outcome
// class for metrics and the access log. limited() marks sheds,
// rateLimited marks 429s, and writeEngineError marks deadline 503s and
// client-cancel 499s — statuses alone can't separate these causes, and
// they mean very different things for capacity planning: "shed" is the
// server out of slots, "limited" is one client over its budget,
// "deadline" is work that blew its time box, "cancelled" is a client
// that stopped caring.
type statusWriter struct {
	http.ResponseWriter
	status  int
	outcome string // "", "shed", "limited", "deadline", "cancelled"
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// markOutcome tags the in-flight request's statusWriter (a no-op for
// writers that did not pass through instrument, e.g. in unit tests that
// call handlers directly).
func markOutcome(w http.ResponseWriter, outcome string) {
	if sw, ok := w.(*statusWriter); ok && sw.outcome == "" {
		sw.outcome = outcome
	}
}

// instrument is the outermost per-route middleware: it adopts or mints
// the request's trace ID, opens the root span, stashes a trace-tagged
// logger in the context, records the rc_http_* metrics and emits one
// structured access-log line per request. path is the route pattern,
// not the raw URL, so the label space stays bounded.
//
// All bookkeeping lives in a single deferred block so a panicking
// handler cannot leak the in-flight gauge or skip the metrics/log/span
// teardown: the panic is recovered, counted in rc_http_panics_total,
// and answered with a 500 if the handler had not written yet.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.m.latency.With(path)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()

		// A valid propagated header (peer store hop, rcload -trace)
		// wins over minting and forces sampling, so a cross-process
		// trace is never cut short by this side's 1-in-N dice.
		propagated := false
		if hdr := r.Header.Get(obs.TraceHeader); obs.ValidTraceID(hdr) {
			ctx = obs.WithTrace(ctx, hdr)
			propagated = true
		}
		ctx, trace := obs.EnsureTrace(ctx)
		ctx, span := s.tracer.StartTrace(ctx, path, trace, propagated)
		logger := s.logger.With("trace", trace)
		ctx = obs.ContextWithLogger(ctx, logger)
		// Echo the ID so callers can fetch /debug/requests/{trace}.
		w.Header().Set(obs.TraceHeader, trace)

		sw := &statusWriter{ResponseWriter: w}
		s.m.inFlight.Add(1)
		defer func() {
			rec := recover()
			if rec != nil && rec != http.ErrAbortHandler {
				s.m.panics.With(path).Inc()
				logger.Error("handler panic",
					"method", r.Method,
					"path", path,
					"panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()),
				)
				if sw.status == 0 {
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
				markOutcome(sw, "panic")
			}
			s.m.inFlight.Add(-1)

			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			dur := time.Since(start)
			lat.Observe(dur.Seconds())
			s.m.requests.With(r.Method, path, strconv.Itoa(sw.status)).Inc()
			outcome := sw.outcome
			if outcome == "" {
				outcome = "ok"
			}
			switch outcome {
			case "shed":
				s.m.shed.With(path).Inc()
			case "limited":
				s.m.limited.With(path).Inc()
			case "cancelled":
				s.m.cancelled.With(path).Inc()
			}
			span.SetAttr("method", r.Method)
			span.SetAttr("status", strconv.Itoa(sw.status))
			if sw.status >= 500 {
				span.MarkError()
			}
			span.End()
			logger.Info("request",
				"method", r.Method,
				"path", path,
				"status", sw.status,
				"outcome", outcome,
				"durMs", dur.Milliseconds(),
			)
			if rec == http.ErrAbortHandler {
				// net/http's sentinel for "drop the connection" — keep
				// its contract after our own accounting is done.
				panic(rec)
			}
		}()
		h(sw, r.WithContext(ctx))
	}
}
