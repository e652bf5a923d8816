// Package serve implements the rcserve HTTP service (cmd/rcserve is a
// thin wrapper around Run). It exposes the parallel classification engine
// (internal/engine) as an HTTP JSON service, turning the paper's
// decision procedures into a queryable recoverable-consensus hierarchy:
//
//	GET  /v1/classify?type=S_3&limit=6   classify a built-in type
//	POST /v1/classify?limit=6            classify a custom JSON transition table
//	POST /v1/classify/batch              classify up to 256 types in one request
//	                                     ({"limit","items":[{"type"}|{"table"}]});
//	                                     per-item errors, a bad item never
//	                                     fails the batch
//	GET  /v1/search?type=T_5&property=recording&n=3
//	GET  /v1/zoo?limit=5                 classify the whole built-in zoo
//	GET  /v1/mc?target=team-sn&n=2&depth=8&crashes=1
//	                                     model-check an RC protocol; violations
//	                                     come back as replayable schedules
//	GET  /v1/mc/targets                  list the model-checkable protocols
//	GET  /v1/atlas?states=2&ops=2&random=500&limit=3
//	                                     census summary over a small generated
//	                                     type universe (memoized; deterministic)
//	GET  /v1/atlas/type?seed=42&states=3&ops=2&resps=2
//	                                     generate + classify one seeded type
//	POST /v1/jobs                        submit async work ({"kind","params"});
//	                                     kinds: census, mc, zoo. Duplicate
//	                                     submissions coalesce onto one job ID.
//	GET  /v1/jobs                        list retained jobs
//	GET  /v1/jobs/{id}                   job status + result when done
//	DELETE /v1/jobs/{id}                 cancel a queued/running job
//	GET  /v1/store/{kind}/{addr}         serve one store entry (raw verified
//	                                     envelope) to a peer replica
//	PUT  /v1/store/{kind}/{addr}         accept an entry from a peer; fully
//	                                     re-verified before storage
//	POST /v1/store/compact               run the store compaction pass
//	GET  /healthz                        liveness + cache/store/queue statistics
//
// One engine (and therefore one classification memo) is shared by all
// requests, so repeated and overlapping queries are served from memory.
// Requests are bounded: limits/levels are capped, request bodies are
// size-limited, each request gets a deadline, and an in-flight cap sheds
// load with 503 instead of queueing unboundedly. Work that outlives a
// request deadline goes through /v1/jobs instead: submissions return a
// deterministic job ID derived from the request fingerprint and execute
// on a bounded worker pool.
//
// Traffic hardening: concurrent requests with identical keys on the
// expensive routes (/v1/classify, /v1/search, /v1/zoo, /v1/mc,
// /v1/atlas) coalesce onto one computation and share byte-identical
// response bytes (rc_http_coalesced_total), a bounded response memo
// answers repeated classify/zoo/search requests without re-entering the
// engine, and -rate/-burst give each client (keyed by remote host) a
// token bucket — over-budget requests get 429 with Retry-After
// (rc_http_rate_limited_total), distinct from 503 shedding, which
// signals server saturation. cmd/rcload drives all of this as a load
// generator; rcperf's serve-warm and serve-cold workloads keep
// throughput and latency under the paired benchmark gate.
//
// With -store DIR, results persist in a crash-safe content-addressed
// store under DIR: the engine's search results, census rows and
// finished job results all survive restarts, and a resubmitted job is
// answered from disk without recomputation. The same directory can be
// warmed offline with `rcatlas census -store DIR`. -store-budget caps
// the directory's disk usage with size-aware LRU eviction, and
// -store-peer chains one or more peer replicas behind the local store:
// a local miss reads through to each peer's /v1/store routes (checksums
// re-verified on receipt), far hits heal the local tier, and a down or
// slow peer degrades to recomputation — never to failure. With peers
// but no -store, the server runs diskless against the fleet pool.
//
// On SIGINT/SIGTERM the server drains: in-flight requests finish,
// queued and running jobs get the drain timeout to complete, and
// whatever remains is cancelled.
//
// Usage:
//
//	rcserve [-addr :8372] [-workers 0] [-max-limit 6] [-cache 2048]
//	        [-timeout 30s] [-max-inflight 64] [-store DIR]
//	        [-store-budget 256M] [-store-peer URL[,URL]] [-store-peer-timeout 2s]
//	        [-job-workers 2] [-job-timeout 10m] [-drain 30s]
//	        [-rate 0] [-burst 10] [-pprof] [-log-format text] [-log-level info]
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/flight"
	"rcons/internal/jobs"
	"rcons/internal/lru"
	"rcons/internal/mc"
	"rcons/internal/obs"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/store"
	"rcons/internal/types"
)

type config struct {
	addr        string
	workers     int
	maxLimit    int
	cacheSize   int
	timeout     time.Duration
	maxInflight int
	maxBody     int64
	storeDir    string
	storeBudget int64
	storePeers  []string
	peerTimeout time.Duration
	jobWorkers  int
	jobTimeout  time.Duration
	drain       time.Duration
	rate        float64
	burst       int
	pprofOn     bool
	logFormat   string
	logLevel    string
	traceSample int
	recorder    int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("rcserve", flag.ContinueOnError)
	cfg := config{maxBody: 1 << 20}
	fs.StringVar(&cfg.addr, "addr", ":8372", "listen address")
	fs.IntVar(&cfg.workers, "workers", 0, "engine worker slots, shared by all searches (0 = all CPUs)")
	fs.IntVar(&cfg.maxLimit, "max-limit", 6, "cap on the limit/n request parameters")
	fs.IntVar(&cfg.cacheSize, "cache", 2048, "encoded responses the response memo keeps (0 or negative disables it)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request deadline")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 64, "concurrent requests before shedding with 503")
	fs.StringVar(&cfg.storeDir, "store", "", "persist results in a content-addressed store under this directory")
	var storeBudget, storePeers string
	fs.StringVar(&storeBudget, "store-budget", "", "disk budget for the -store directory, e.g. 256M or 2G (empty = unlimited)")
	fs.StringVar(&storePeers, "store-peer", "", "comma-separated peer replica base URLs to read results through, e.g. http://replica-a:8372")
	fs.DurationVar(&cfg.peerTimeout, "store-peer-timeout", 2*time.Second, "per-fetch deadline for -store-peer reads")
	fs.IntVar(&cfg.jobWorkers, "job-workers", 2, "concurrently executing async jobs")
	fs.DurationVar(&cfg.jobTimeout, "job-timeout", 10*time.Minute, "per-job execution deadline")
	fs.DurationVar(&cfg.drain, "drain", 30*time.Second, "shutdown budget for in-flight requests and jobs")
	fs.Float64Var(&cfg.rate, "rate", 0, "per-client request rate limit in req/s on /v1 routes (0 disables)")
	fs.IntVar(&cfg.burst, "burst", 10, "per-client burst allowance when -rate is set")
	fs.BoolVar(&cfg.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.IntVar(&cfg.traceSample, "trace-sample", 1, "trace 1 in N requests into the flight recorder (1 = every request, 0 disables tracing)")
	fs.IntVar(&cfg.recorder, "recorder", 128, "completed traces the flight recorder retains for /debug/requests")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	switch cfg.logFormat {
	case "text", "json":
	default:
		return config{}, fmt.Errorf("-log-format must be text or json, got %q", cfg.logFormat)
	}
	switch cfg.logLevel {
	case "debug", "info", "warn", "error":
	default:
		return config{}, fmt.Errorf("-log-level must be debug, info, warn or error, got %q", cfg.logLevel)
	}
	if cfg.maxLimit < 2 {
		return config{}, fmt.Errorf("-max-limit must be ≥ 2, got %d", cfg.maxLimit)
	}
	if cfg.maxInflight < 1 {
		return config{}, fmt.Errorf("-max-inflight must be ≥ 1, got %d", cfg.maxInflight)
	}
	if cfg.jobWorkers < 1 {
		return config{}, fmt.Errorf("-job-workers must be ≥ 1, got %d", cfg.jobWorkers)
	}
	if cfg.rate < 0 {
		return config{}, fmt.Errorf("-rate must be ≥ 0, got %g", cfg.rate)
	}
	if cfg.rate > 0 && cfg.burst < 1 {
		return config{}, fmt.Errorf("-burst must be ≥ 1 when -rate is set, got %d", cfg.burst)
	}
	if cfg.traceSample < 0 {
		return config{}, fmt.Errorf("-trace-sample must be ≥ 0, got %d", cfg.traceSample)
	}
	if cfg.recorder < 1 {
		return config{}, fmt.Errorf("-recorder must be ≥ 1, got %d", cfg.recorder)
	}
	if storeBudget != "" {
		if cfg.storeDir == "" {
			return config{}, fmt.Errorf("-store-budget requires -store")
		}
		b, err := store.ParseSize(storeBudget)
		if err != nil {
			return config{}, fmt.Errorf("-store-budget: %w", err)
		}
		cfg.storeBudget = b
	}
	if storePeers != "" {
		for _, u := range strings.Split(storePeers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.storePeers = append(cfg.storePeers, u)
			}
		}
	}
	return cfg, nil
}

// Run parses flags, starts the HTTP server and blocks until it fails
// or a SIGINT/SIGTERM triggers a graceful drain. It is the whole of
// cmd/rcserve; living here lets tests and the bench/load harnesses run
// the exact production handler in-process.
func Run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	srv.logger.Info("listening",
		"addr", cfg.addr, "workers", srv.eng.Workers(),
		"maxLimit", cfg.maxLimit, "store", cfg.storeDir, "pprof", cfg.pprofOn)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		_ = srv.drainJobs(sctx)
		srv.closeStore()
		return err
	case <-sigc:
		// Graceful shutdown: stop accepting, let in-flight limited
		// handlers finish (Shutdown waits for active requests, and the
		// explicit drain below additionally waits until every in-flight
		// slot is released), then give queued/running jobs the remainder
		// of the budget before cancelling them. Progress publishers are
		// per-run and flushed by the runs they instrument, so a finished
		// drain leaves no telemetry goroutines behind; the access logger
		// writes synchronously and needs no flush.
		srv.logger.Info("shutting down", "drain", cfg.drain)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		serr := hs.Shutdown(ctx)
		if derr := srv.Drain(ctx); serr == nil {
			serr = derr
		}
		srv.logger.Info("drained", "err", serr)
		return serr
	}
}

// server holds the shared engine, the optional persistent store, the
// async job manager and the request-limiting state.
type Server struct {
	cfg      config
	eng      *engine.Engine
	store    *store.Store  // nil without -store
	peers    []*store.Peer // read-through tiers from -store-peer
	jobs     *jobs.Manager
	inflight chan struct{}

	// reg is this server's metrics registry (per-server, not process-
	// global, so test servers never share counters); m holds the hot-path
	// metric handles, logger the structured root logger, and progress the
	// sink long-running jobs publish live search state through.
	reg      *obs.Registry
	m        metrics
	logger   *slog.Logger
	progress obs.Sink

	// tracer samples requests into span traces; recorder is the flight
	// ring behind GET /debug/requests. Both are per-server, like reg.
	tracer   *obs.Tracer
	recorder *obs.Recorder

	// flights coalesces concurrent identical expensive requests onto one
	// computation: followers receive a byte-identical copy of the
	// leader's encoded payload. Keys are per-route (see coalesced).
	flights flight.Group[[]byte]

	// limiter is the per-client token bucket (-rate/-burst); nil when
	// rate limiting is disabled.
	limiter *rateLimiter

	// atlasCache memoizes encoded census summaries by request
	// parameters; census artifacts are deterministic functions of those
	// parameters, so cached summaries are always exact. Concurrent cold
	// requests for the same key dedup through flights.
	atlasCache *lru.Cache[string, []byte]

	// items is the response memo: encoded classification, zoo and
	// search payloads, each keyed by the request's own parameters
	// (for a classification its built-in name or raw table JSON, plus
	// limit — see classifyItemKey; "z|", "s|" and "a|" prefix the zoo,
	// search and atlas-type keys). Every payload is a pure function of
	// its key, so entries can never go stale, and a hit skips JSON
	// parsing, table walks and engine dispatch entirely: this is what
	// lets a warm /v1/classify/batch stream items at memory speed
	// instead of paying ~tens of µs of per-item bookkeeping. It is the
	// server's only memo of classifications (the engine keeps none),
	// sized by -cache; nil when -cache is not positive.
	items *lru.Cache[string, []byte]

	// parseTable decodes the custom table a /v1/classify POST carries;
	// tests substitute it to observe the type a request classifies.
	parseTable func(body []byte) (spec.Type, error)
}

// NewFromFlags builds a Server from rcserve command-line flags without
// binding a listener: callers drive Handler() directly (httptest, the
// bench harness, rcload's self-serve mode) and Drain it when done.
func NewFromFlags(args ...string) (*Server, error) {
	cfg, err := parseFlags(args)
	if err != nil {
		return nil, err
	}
	return newServer(cfg)
}

func newServer(cfg config) (*Server, error) {
	s := &Server{
		cfg:        cfg,
		inflight:   make(chan struct{}, cfg.maxInflight),
		atlasCache: lru.New[string, []byte](atlasCacheCap),
		parseTable: func(body []byte) (spec.Type, error) { return types.NewCustomFromJSON(body) },
		reg:        obs.NewRegistry(),
		logger:     obs.NewLogger(os.Stderr, cfg.logFormat, cfg.logLevel),
	}
	s.recorder = obs.NewRecorder(cfg.recorder)
	s.tracer = obs.NewTracer(cfg.traceSample, s.recorder)
	if cfg.rate > 0 {
		s.limiter = newRateLimiter(cfg.rate, float64(cfg.burst))
	}
	if cfg.cacheSize > 0 {
		s.items = lru.New[string, []byte](cfg.cacheSize)
	}
	s.progress = obs.RegistrySink(s.reg)
	// Interface-typed nils must stay nil interfaces, so only assign the
	// store once it exists.
	engOpts := engine.Options{Workers: cfg.workers}
	jobOpts := jobs.Options{
		Workers: cfg.jobWorkers,
		Timeout: cfg.jobTimeout,
		Logger:  s.logger.With("subsystem", "jobs"),
		Tracer:  s.tracer,
	}
	// Result-store tiers, nearest first: the local on-disk store (budget
	// enforced here, the single budgeted writer of its directory), then
	// each -store-peer replica. One tier plugs in directly; several
	// compose into a read-through chain that heals the local tier on far
	// hits. With peers but no -store, the server runs diskless against
	// the fleet pool.
	var tiers []store.Backend
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir, store.Options{BudgetBytes: cfg.storeBudget})
		if err != nil {
			return nil, err
		}
		s.store = st
		tiers = append(tiers, st)
	}
	for _, u := range cfg.storePeers {
		p, err := store.NewPeer(u, cfg.peerTimeout)
		if err != nil {
			return nil, err
		}
		s.peers = append(s.peers, p)
		tiers = append(tiers, p)
	}
	switch {
	case len(tiers) == 1:
		engOpts.Persist = tiers[0]
		jobOpts.Store = tiers[0]
	case len(tiers) > 1:
		c := store.NewChain(tiers...)
		engOpts.Persist = c
		jobOpts.Store = c
	}
	s.eng = engine.New(engOpts)
	s.jobs = jobs.New(jobOpts)
	s.setupMetrics()
	s.registerJobKinds()
	return s, nil
}

// drainJobs shuts the job manager down within ctx.
func (s *Server) drainJobs(ctx context.Context) error {
	err := s.jobs.Drain(ctx)
	if errors.Is(err, jobs.ErrClosed) {
		return nil
	}
	return err
}

// closeStore releases the local store's files and its pack's writer
// lock, so later handles on the directory (a restarted server in the
// same process, rcatlas compact) may repair, evict from and compact
// what this server wrote.
func (s *Server) closeStore() {
	if s.store != nil {
		_ = s.store.Close()
	}
}

// Drain completes a graceful shutdown: it waits until every in-flight
// limited handler has released its slot (acquiring all of them proves
// none is held), drains the job manager and closes the local store.
// Jobs that outlive ctx are cancelled by the manager. The server must
// not be used afterwards.
func (s *Server) Drain(ctx context.Context) error {
	defer s.closeStore()
	acquired := 0
	for ; acquired < cap(s.inflight); acquired++ {
		select {
		case s.inflight <- struct{}{}:
		case <-ctx.Done():
			// Keep draining jobs even if a handler is wedged.
			for i := 0; i < acquired; i++ {
				<-s.inflight
			}
			_ = s.drainJobs(ctx)
			return ctx.Err()
		}
	}
	for i := 0; i < acquired; i++ {
		<-s.inflight
	}
	return s.drainJobs(ctx)
}

// handler builds the route table. Every route passes through instrument
// (trace ID, metrics, access log); the expensive ones additionally pass
// through limited (in-flight cap + deadline). The route pattern — not
// the raw URL — is the metrics path label, keeping the label space
// bounded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Every /v1 route passes through the per-client rate limiter (a
	// no-op without -rate); /healthz and /metrics stay unlimited so
	// probes and scrapes keep working while clients are throttled.
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(label, s.rateLimited(h)))
	}
	route("/v1/classify", "/v1/classify", s.limited(s.handleClassify))
	route("POST /v1/classify/batch", "/v1/classify/batch", s.limited(s.handleClassifyBatch))
	route("/v1/search", "/v1/search", s.limited(s.handleSearch))
	route("/v1/zoo", "/v1/zoo", s.limited(s.handleZoo))
	route("/v1/mc", "/v1/mc", s.limited(s.handleModelCheck))
	route("/v1/mc/targets", "/v1/mc/targets", s.handleModelCheckTargets)
	route("/v1/atlas", "/v1/atlas", s.limited(s.handleAtlas))
	route("/v1/atlas/type", "/v1/atlas/type", s.limited(s.handleAtlasType))
	// Peer store routes skip rateLimited and limited on purpose: they
	// carry replica-to-replica cache traffic (like /metrics scrapes),
	// and throttling them would silently convert fleet-wide store hits
	// into recomputed searches. Compaction is an operator action and
	// takes the normal limits.
	mux.HandleFunc("GET /v1/store/{kind}/{addr}",
		s.instrument("/v1/store/{kind}/{addr}", s.handleStoreGet))
	mux.HandleFunc("PUT /v1/store/{kind}/{addr}",
		s.instrument("/v1/store/{kind}/{addr}", s.handleStorePut))
	route("POST /v1/store/compact", "/v1/store/compact", s.limited(s.handleStoreCompact))
	route("POST /v1/jobs", "/v1/jobs", s.limited(s.handleJobSubmit))
	route("GET /v1/jobs", "/v1/jobs", s.handleJobList)
	route("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobGet)
	route("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealth))
	mux.Handle("GET /metrics", s.reg.Handler())
	// The flight-recorder debug surface is deliberately outside
	// instrument (like /metrics): inspecting traces must not generate
	// traces, or the recorder would fill with reads of itself.
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/requests/{trace}", s.handleDebugRequestsTrace)
	if s.cfg.pprofOn {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// limited applies the in-flight cap and per-request deadline.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			markOutcome(w, "shed")
			writeError(w, http.StatusServiceUnavailable, "server at capacity, retry later")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// ---- JSON encoding of checker results ----

// witnessJSON is the wire form of a checker.Witness.
type witnessJSON struct {
	Q0    string   `json:"q0"`
	Teams []int    `json:"teams"`
	Ops   []string `json:"ops"`
	Human string   `json:"display"`
}

func encodeWitness(w *checker.Witness) *witnessJSON {
	if w == nil {
		return nil
	}
	ops := make([]string, len(w.Ops))
	for i, op := range w.Ops {
		ops[i] = string(op)
	}
	return &witnessJSON{Q0: string(w.Q0), Teams: w.Teams, Ops: ops, Human: w.String()}
}

// levelJSON is the wire form of a checker.MaxLevel.
type levelJSON struct {
	Max     int          `json:"max"`
	AtLimit bool         `json:"atLimit"`
	Limit   int          `json:"limit"`
	Display string       `json:"display"`
	Witness *witnessJSON `json:"witness,omitempty"`
}

func encodeLevel(m checker.MaxLevel) levelJSON {
	return levelJSON{
		Max: m.Max, AtLimit: m.AtLimit, Limit: m.Limit,
		Display: m.String(), Witness: encodeWitness(m.Witness),
	}
}

// bandJSON is a [lo, hi] bound; Hi is null when the band is unbounded
// above (the scan hit its limit).
type bandJSON struct {
	Lo      int    `json:"lo"`
	Hi      *int   `json:"hi"`
	Display string `json:"display"`
}

func encodeBand(lo, hi int, display string) bandJSON {
	b := bandJSON{Lo: lo, Display: display}
	if hi < checker.Unbounded {
		b.Hi = &hi
	}
	return b
}

// classificationJSON is the wire form of a checker.Classification.
// CanonicalFingerprint, when present, is a label-free identity of the
// type's transition structure: two uploads of isomorphic tables (same
// structure, different state/op/response names) share it, letting API
// consumers deduplicate their own type collections.
type classificationJSON struct {
	Type                 string    `json:"type"`
	Readable             bool      `json:"readable"`
	Discerning           levelJSON `json:"discerning"`
	Recording            levelJSON `json:"recording"`
	Cons                 bandJSON  `json:"cons"`
	Rcons                bandJSON  `json:"rcons"`
	CanonicalFingerprint string    `json:"canonicalFingerprint,omitempty"`
}

func encodeClassification(c checker.Classification) classificationJSON {
	return classificationJSON{
		Type:       c.TypeName,
		Readable:   c.Readable,
		Discerning: encodeLevel(c.Discerning),
		Recording:  encodeLevel(c.Recording),
		Cons:       encodeBand(c.ConsLo, c.ConsHi, c.ConsBand()),
		Rcons:      encodeBand(c.RconsLo, c.RconsHi, c.RconsBand()),
	}
}

// encodeClassificationWithFP is the one encoder every classification
// response flows through: it stamps the canonical fingerprint of t at
// limit ("" when the type is not canonicalizable), so /v1/classify,
// /v1/classify/batch, /v1/zoo, /v1/atlas/type and the zoo job all
// expose the same identity field.
func (s *Server) encodeClassificationWithFP(c checker.Classification, t spec.Type, limit int) classificationJSON {
	enc := encodeClassification(c)
	enc.CanonicalFingerprint, _ = engine.CanonicalFingerprint(t, limit)
	return enc
}

// ---- handlers ----

// classifyItemKey keys the encoded-classification memo by the bytes
// the client itself sent: a built-in name, or the raw custom-table
// JSON verbatim (no canonicalization — differently formatted but
// equivalent tables simply miss and recompute). Both forms are scoped
// by limit and can never collide with each other.
func classifyItemKey(name string, table []byte, limit int) string {
	if name != "" {
		return "n|" + strconv.Itoa(limit) + "|" + name
	}
	return "t|" + strconv.Itoa(limit) + "|" + string(table)
}

// itemGet / itemPut guard the optional response memo (nil when -cache
// is not positive).
func (s *Server) itemGet(key string) ([]byte, bool) {
	if s.items == nil {
		return nil, false
	}
	return s.items.Get(key)
}

func (s *Server) itemPut(key string, payload []byte) {
	if s.items != nil {
		s.items.Put(key, payload)
	}
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	limit, ok := s.intParam(w, r, "limit", 6)
	if !ok {
		return
	}
	var (
		name string
		body []byte
	)
	switch r.Method {
	case http.MethodGet:
		name = r.URL.Query().Get("type")
		if name == "" {
			writeError(w, http.StatusBadRequest, "missing type parameter")
			return
		}
	case http.MethodPost:
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
			} else {
				writeError(w, http.StatusBadRequest, "could not read request body")
			}
			return
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET with ?type= or POST a custom table")
		return
	}
	// A memo hit serves the finished payload before the type is even
	// parsed; misses resolve, classify and fill the memo below.
	itemKey := classifyItemKey(name, body, limit)
	if item, hit := s.itemGet(itemKey); hit {
		writeRawJSON(w, http.StatusOK, item)
		return
	}
	var t spec.Type
	if name != "" {
		tt, err := types.ByName(name)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		t = tt
	} else {
		tt, err := s.parseTable(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		t = tt
	}
	compute := func(ctx context.Context) ([]byte, error) {
		c, err := s.eng.Classify(ctx, t, limit)
		if err != nil {
			return nil, err
		}
		payload, err := marshalJSON(s.encodeClassificationWithFP(c, t, limit))
		if err != nil {
			return nil, err
		}
		s.itemPut(itemKey, payload)
		return payload, nil
	}
	// Coalesce on the request key the memo above uses: the response
	// embeds concrete state/op labels (witnesses, the type name), so
	// only requests that send the same bytes may share a payload —
	// isomorphic-but-relabeled uploads must not inherit the leader's
	// labels.
	s.coalesced(w, r, "/v1/classify", itemKey, compute)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	name := r.URL.Query().Get("type")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing type parameter")
		return
	}
	t, err := types.ByName(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	prop, err := engine.ParseProperty(r.URL.Query().Get("property"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	n, ok := s.intParam(w, r, "n", 2)
	if !ok {
		return
	}
	// Built-in types are identified by their display name, which is
	// stable across aliases, so the name is an exact coalescing key —
	// and, like the zoo's, the payload is a pure function of it, so
	// repeats are served straight from the response memo.
	key := fmt.Sprintf("%s|%s|%d", t.Name(), prop.String(), n)
	searchKey := "s|" + key
	if payload, hit := s.itemGet(searchKey); hit {
		writeRawJSON(w, http.StatusOK, payload)
		return
	}
	s.coalesced(w, r, "/v1/search", key, func(ctx context.Context) ([]byte, error) {
		witness, err := s.eng.Search(ctx, t, prop, n)
		if err != nil {
			return nil, err
		}
		payload, err := marshalJSON(map[string]any{
			"type":     t.Name(),
			"property": prop.String(),
			"n":        n,
			"found":    witness != nil,
			"witness":  encodeWitness(witness),
		})
		if err != nil {
			return nil, err
		}
		s.itemPut(searchKey, payload)
		return payload, nil
	})
}

func (s *Server) handleZoo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	limit, ok := s.intParam(w, r, "limit", 5)
	if !ok {
		return
	}
	// The zoo payload is a pure function of limit, so repeats are served
	// straight from the response memo; only the cold computation (and
	// concurrent cold callers, via coalescing) pays for the scan and the
	// full re-encode.
	zooKey := "z|" + strconv.Itoa(limit)
	if payload, hit := s.itemGet(zooKey); hit {
		writeRawJSON(w, http.StatusOK, payload)
		return
	}
	s.coalesced(w, r, "/v1/zoo", strconv.Itoa(limit), func(ctx context.Context) ([]byte, error) {
		cs, err := s.eng.Scan(ctx, limit)
		if err != nil {
			return nil, err
		}
		// Scan classifies types.Zoo() in order, so zip the two to stamp
		// each entry's canonical fingerprint.
		zoo := types.Zoo()
		results := make([]classificationJSON, len(cs))
		for i, c := range cs {
			results[i] = s.encodeClassificationWithFP(c, zoo[i], limit)
		}
		payload, err := marshalJSON(map[string]any{
			"limit":   limit,
			"count":   len(results),
			"results": results,
		})
		if err != nil {
			return nil, err
		}
		s.itemPut(zooKey, payload)
		return payload, nil
	})
}

// Model-checking request caps: exhaustive schedule enumeration is
// exponential, so the service keeps the per-request problem size small
// and relies on the request deadline (plus the node budget) for the rest.
const (
	mcMaxN       = 3
	mcMaxDepth   = 12
	mcMaxCrashes = 3
	mcNodeBudget = 250_000
)

// counterexampleJSON is the wire form of an mc.Counterexample. The
// schedule is replayable: feed the tokens back through a sim script
// ("s0" = step of p0, "c1" = crash of p1, "C*" = simultaneous crash).
type counterexampleJSON struct {
	Schedule  []string `json:"schedule"`
	Display   string   `json:"display"`
	Violation string   `json:"violation"`
	Trace     []string `json:"trace"`
}

func encodeCounterexample(ce *mc.Counterexample) *counterexampleJSON {
	if ce == nil {
		return nil
	}
	out := &counterexampleJSON{
		Display:   sim.FormatScript(ce.Schedule),
		Violation: ce.Violation,
	}
	for _, a := range ce.Schedule {
		out.Schedule = append(out.Schedule, a.String())
	}
	for _, e := range ce.Trace {
		out.Trace = append(out.Trace, e.String())
	}
	return out
}

func (s *Server) handleModelCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	target := r.URL.Query().Get("target")
	if target == "" {
		writeError(w, http.StatusBadRequest, "missing target parameter (see /v1/mc/targets)")
		return
	}
	n, ok := s.boundedParam(w, r, "n", 2, 2, mcMaxN)
	if !ok {
		return
	}
	depth, ok := s.boundedParam(w, r, "depth", 8, 2, mcMaxDepth)
	if !ok {
		return
	}
	crashes, ok := s.boundedParam(w, r, "crashes", 1, 0, mcMaxCrashes)
	if !ok {
		return
	}
	if mc.TargetDoc(target) == "" {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown target %q (see /v1/mc/targets)", target))
		return
	}
	tgt, err := mc.TargetByName(target, n)
	if err != nil {
		// The target exists; the parameters don't fit it (e.g. a variant
		// that needs n ≥ 3) — a client error, not a missing resource.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := fmt.Sprintf("%s|%d|%d|%d", target, n, depth, crashes)
	s.coalesced(w, r, "/v1/mc", key, func(ctx context.Context) ([]byte, error) {
		res, err := mc.Check(ctx, tgt, mc.Options{
			MaxDepth:    depth,
			CrashBudget: crashes,
			NodeBudget:  mcNodeBudget,
			Workers:     s.cfg.workers, // honour the operator's -workers bound
			Progress:    s.progress,
		})
		if err != nil {
			return nil, err
		}
		s.recordMCRun(res)
		return marshalJSON(map[string]any{
			"target":         res.Target,
			"n":              n,
			"model":          res.Model.String(),
			"depth":          res.MaxDepth,
			"crashes":        res.CrashBudget,
			"safe":           res.Safe,
			"exhaustive":     res.Exhaustive,
			"complete":       res.Complete,
			"stats":          res.Stats,
			"counterexample": encodeCounterexample(res.CE),
		})
	})
}

func (s *Server) handleModelCheckTargets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	type targetJSON struct {
		Name string `json:"name"`
		Doc  string `json:"doc"`
	}
	var out []targetJSON
	for _, name := range mc.Targets() {
		out = append(out, targetJSON{Name: name, Doc: mc.TargetDoc(name)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"targets": out})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Every stat here is read back out of the metrics registry (whose
	// func-backed series sample the subsystems' own counters), so this
	// JSON and /metrics can never disagree. The structs keep the exact
	// pre-registry wire shape.
	resp := map[string]any{
		"status":  "ok",
		"workers": s.eng.Workers(),
		"cache":   s.cacheStatsFromRegistry(),
		"jobs":    s.jobsStatsFromRegistry(),
	}
	if s.store != nil {
		resp["store"] = s.storeStatsFromRegistry()
		resp["storeBudget"] = s.store.Budget()
	}
	if len(s.peers) > 0 {
		resp["storePeers"] = s.peerStatsFromRegistry()
	}
	writeJSON(w, http.StatusOK, resp)
}

// boundedParam parses an integer query parameter in [lo, hi] (defaulting
// to def when absent). Unlike intParam the cap is endpoint-specific, not
// the server's -max-limit.
func (s *Server) boundedParam(w http.ResponseWriter, r *http.Request, name string, def, lo, hi int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		// Clamp the default into [lo, hi] too: endpoint defaults are tuned
		// for the stock caps, and an operator-lowered cap (-max-limit 2)
		// must bound defaulted requests exactly like explicit ones —
		// otherwise a parameterless request runs above the server's cap.
		return min(max(def, lo), hi), true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < lo {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("%s must be an integer ≥ %d", name, lo))
		return 0, false
	}
	if v > hi {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("%s=%d exceeds this server's cap of %d", name, v, hi))
		return 0, false
	}
	return v, true
}

// intParam parses a bounded integer query parameter in [2, maxLimit],
// the cap shared by all classification endpoints.
func (s *Server) intParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	return s.boundedParam(w, r, name, min(def, s.cfg.maxLimit), 2, s.cfg.maxLimit)
}

// statusClientClosedRequest is the de-facto-standard status (nginx's
// 499) for requests abandoned by the client before the response.
const statusClientClosedRequest = 499

// writeEngineError maps search failures to HTTP statuses: hitting the
// server-imposed deadline becomes 503 (the request exceeded its
// budget — a capacity signal), a client disconnect becomes 499 with
// its own outcome label (nobody reads the response; the operator must
// not chase it as a capacity problem), and everything else is a
// client-visible 422 (e.g. a custom table a theorem rejects).
func (s *Server) writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		markOutcome(w, "deadline")
		writeError(w, http.StatusServiceUnavailable, "request exceeded its time budget")
	case errors.Is(err, context.Canceled):
		markOutcome(w, "cancelled")
		writeError(w, statusClientClosedRequest, "client closed request")
	default:
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// marshalJSON encodes v exactly as writeJSON would (no HTML escaping,
// trailing newline), so coalesced handlers can share one encoded
// payload across callers and every copy is byte-identical.
func marshalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeRawJSON(w http.ResponseWriter, status int, payload []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(payload)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
