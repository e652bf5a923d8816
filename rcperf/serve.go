package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcons/internal/atlas"
	"rcons/internal/engine"
	"rcons/internal/obs"
	"rcons/internal/serve"
	"rcons/internal/spec"
	"rcons/internal/types"
)

// ---- in-process servers ----

// server is one rcserve handler behind a loopback listener.
type server struct {
	s  *serve.Server
	ts *httptest.Server
}

func startServer(args ...string) (*server, error) {
	s, err := serve.NewFromFlags(append([]string{"-log-level", "error"}, args...)...)
	if err != nil {
		return nil, fmt.Errorf("build server: %w", err)
	}
	return &server{s: s, ts: httptest.NewServer(s.Handler())}, nil
}

func (v *server) url() string { return v.ts.URL }

// close stops the listener (waiting for outstanding requests) and
// drains the server's in-flight slots and jobs.
func (v *server) close() error {
	v.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return v.s.Drain(ctx)
}

func newClient() *http.Client {
	n := clients()
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

// ---- requests and answer checks ----

// Routes, client-side.
const (
	routeClassifyGet = iota
	routeClassifyPost
	routeBatch
	routeZoo
	routeSearch
	nRoutes
)

var routeNames = [nRoutes]string{"classify_get", "classify_post", "batch", "zoo", "search"}

// request is one prepared call with the answer it must produce.
type request struct {
	route  int
	method string
	path   string
	body   []byte
	// items is the served-item count a correct 200 response carries.
	items int64
	// check verifies the full answer; it runs on the seeded sample.
	check func(body []byte) error
}

// verdict is the part of a classification the checks compare: the
// cons and rcons bands.
type verdict struct{ cons, rcons string }

type bandsJSON struct {
	Cons  struct{ Display string } `json:"cons"`
	Rcons struct{ Display string } `json:"rcons"`
}

func (b bandsJSON) verdict() verdict { return verdict{b.Cons.Display, b.Rcons.Display} }

func classifyVerdict(ctx context.Context, eng *engine.Engine, t spec.Type) (verdict, error) {
	c, err := eng.Classify(ctx, t, limit)
	if err != nil {
		return verdict{}, err
	}
	return verdict{c.ConsBand(), c.RconsBand()}, nil
}

func expectVerdict(want verdict) func([]byte) error {
	return func(body []byte) error {
		var got bandsJSON
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.verdict() != want {
			return fmt.Errorf("bands %v, want %v", got.verdict(), want)
		}
		return nil
	}
}

// servedItems reads the served-item count from the envelope that
// precedes a response's payload: "ok" for batches, "count" for the zoo,
// else one.
func servedItems(body []byte) int64 {
	head := body[:min(len(body), 96)]
	for _, field := range []string{`"ok":`, `"count":`} {
		i := bytes.Index(head, []byte(field))
		if i < 0 {
			continue
		}
		digits := head[i+len(field):]
		end := 0
		for end < len(digits) && digits[end] >= '0' && digits[end] <= '9' {
			end++
		}
		if v, err := strconv.ParseInt(string(digits[:end]), 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// sampled reports whether request i of a run with this seed gets the
// full answer check: a seeded 1-in-every choice.
func sampled(seed int64, i, every int) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%uint64(every) == 0
}

// ---- the closed-loop load generator ----

// load is the outcome of one driven phase.
type load struct {
	lat     [nRoutes][]float64 // per-route latencies in ms
	all     []float64
	counts  []int64 // completions per window
	window  time.Duration
	elapsed time.Duration
	ops     int64
	items   int64
	traces  []string // client-minted trace IDs, when traced
}

func (l *load) rate() float64 { return windowRate(l.counts, l.window, l.ops, l.elapsed) }

// drive runs a closed loop of clients() callers against base: each
// sends its next request only after the previous one completed. It
// stops after n requests (n > 0) or after d. Every response is judged:
// a 200 with the expected served-item count passes; the seeded sample
// also has its full answer checked.
func drive(ctx context.Context, e *env, c *http.Client, base string, n int, d time.Duration, traced bool, plan func(i int) *request) *load {
	window := windowFor(d)
	if n > 0 {
		window = time.Second
	}
	var seq atomic.Int64
	parts := make([]*load, clients())
	start := time.Now()
	var deadline time.Time
	if d > 0 {
		deadline = start.Add(d)
	}
	var wg sync.WaitGroup
	for w := range parts {
		part := &load{}
		parts[w] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(seq.Add(1) - 1)
				if (n > 0 && i >= n) || ctx.Err() != nil {
					return
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				r := plan(i)
				var id string
				if traced {
					id = obs.NewTraceID()
				}
				t0 := time.Now()
				status, err := do(ctx, c, base, r, id, &buf)
				el := time.Since(t0)
				if ctx.Err() != nil {
					return
				}
				lat := ms(el)
				part.lat[r.route] = append(part.lat[r.route], lat)
				part.all = append(part.all, lat)
				if k := int(t0.Add(el).Sub(start) / window); k >= 0 {
					for len(part.counts) <= k {
						part.counts = append(part.counts, 0)
					}
					part.counts[k]++
				}
				part.ops++
				if id != "" {
					part.traces = append(part.traces, id)
				}
				switch {
				case err != nil:
					e.tally.fail("%s %s: %v", r.method, r.path, err)
				case status != http.StatusOK:
					e.tally.fail("%s %s: status %d: %.200s", r.method, r.path, status, buf.Bytes())
				default:
					if got := servedItems(buf.Bytes()); got != r.items {
						e.tally.fail("%s %s: served %d items, want %d", r.method, r.path, got, r.items)
						continue
					}
					part.items += r.items
					if r.check != nil && sampled(e.cfg.seed, i, e.cfg.size.checkEvery) {
						if err := r.check(buf.Bytes()); err != nil {
							e.tally.fail("%s %s: %v", r.method, r.path, err)
							continue
						}
					}
					e.tally.pass()
				}
			}
		}()
	}
	wg.Wait()
	out := &load{window: window, elapsed: time.Since(start)}
	for _, p := range parts {
		for r := range p.lat {
			out.lat[r] = append(out.lat[r], p.lat[r]...)
		}
		out.all = append(out.all, p.all...)
		for k, c := range p.counts {
			for len(out.counts) <= k {
				out.counts = append(out.counts, 0)
			}
			out.counts[k] += c
		}
		out.ops += p.ops
		out.items += p.items
		out.traces = append(out.traces, p.traces...)
	}
	// Only full windows count towards the windowed rate.
	if full := int(out.elapsed / window); len(out.counts) > full {
		out.counts = out.counts[:full]
	}
	return out
}

func do(ctx context.Context, c *http.Client, base string, r *request, trace string, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return 0, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// call sends one request outside a measured phase and judges it.
func call(ctx context.Context, e *env, c *http.Client, base string, r *request) {
	var buf bytes.Buffer
	status, err := do(ctx, c, base, r, "", &buf)
	op := "setup " + routeNames[r.route] + " " + r.path
	switch {
	case err != nil:
		e.tally.fail("%s: %v", op, err)
	case status != http.StatusOK:
		e.tally.fail("%s: status %d: %.200s", op, status, buf.Bytes())
	case servedItems(buf.Bytes()) != r.items:
		e.tally.fail("%s: served %d items, want %d", op, servedItems(buf.Bytes()), r.items)
	case r.check != nil:
		e.tally.judge(op, r.check(buf.Bytes()))
	default:
		e.tally.pass()
	}
}

// scrape sums every series of each named metric on the server's
// /metrics page.
func scrape(ctx context.Context, c *http.Client, base string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, name := range names {
			rest, ok := strings.CutPrefix(line, name)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			fields := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
			if len(fields) == 0 {
				continue
			}
			if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
				out[name] += v
			}
		}
	}
	return out, sc.Err()
}

// ---- serve-warm: the mixed rotation over a warm pool ----

// warmPlan is the rcload "mixed" rotation over a seeded pool: GET or
// POST classify (two in five), a batch, the zoo, and a search, with
// every request and its expected answer prepared up front.
type warmPlan struct {
	singles []*request // per pool entry
	batches []*request // per pool offset
	zoo     *request
	search  *request
	// warmup is a request set that fills every memo the rotation reads.
	warmup []*request
}

func (p *warmPlan) plan(i int) *request {
	switch i % 5 {
	case 0, 1:
		return p.singles[i%len(p.singles)]
	case 2:
		return p.batches[i%len(p.batches)]
	case 3:
		return p.zoo
	default:
		return p.search
	}
}

// poolEntry is one classification target: a built-in name or a custom
// table.
type poolEntry struct {
	name  string
	table json.RawMessage
	typ   spec.Type
}

// buildPool makes the same pool as the rcload traffic engine: the zoo
// types whose names resolve, then seeded random 3-state, 2-op tables.
func buildPool(seed int64, n int) ([]poolEntry, error) {
	var pool []poolEntry
	for _, t := range types.Zoo() {
		if len(pool) == n {
			return pool, nil
		}
		// The server resolves the name, so the reference classifies what
		// the name resolves to.
		named, err := types.ByName(t.Name())
		if err != nil {
			continue
		}
		pool = append(pool, poolEntry{name: t.Name(), typ: named})
	}
	rng := rand.New(rand.NewSource(seed))
	for len(pool) < n {
		raw, err := json.Marshal(atlas.Random(rng, 3, 2, 2).Custom())
		if err != nil {
			return nil, err
		}
		t, err := types.NewCustomFromJSON(raw)
		if err != nil {
			return nil, err
		}
		pool = append(pool, poolEntry{table: raw, typ: t})
	}
	return pool, nil
}

// newWarmPlan builds the rotation and its reference answers, computed
// by a separate engine.
func newWarmPlan(ctx context.Context, e *env) (*warmPlan, error) {
	sz := e.cfg.size
	pool, err := buildPool(e.cfg.seed, sz.pool)
	if err != nil {
		return nil, err
	}
	ref := engine.New(engine.Options{})
	refs := make([]verdict, len(pool))
	p := &warmPlan{}
	for i, ent := range pool {
		if refs[i], err = classifyVerdict(ctx, ref, ent.typ); err != nil {
			return nil, fmt.Errorf("reference classify %s: %w", ent.typ.Name(), err)
		}
		r := &request{items: 1, check: expectVerdict(refs[i])}
		if ent.name != "" {
			r.route, r.method = routeClassifyGet, http.MethodGet
			r.path = fmt.Sprintf("/v1/classify?type=%s&limit=%d", url.QueryEscape(ent.name), limit)
		} else {
			r.route, r.method = routeClassifyPost, http.MethodPost
			r.path = fmt.Sprintf("/v1/classify?limit=%d", limit)
			r.body = ent.table
		}
		p.singles = append(p.singles, r)
	}
	for off := range pool {
		items := make([]map[string]any, sz.batch)
		want := make([]verdict, sz.batch)
		for j := range items {
			ent := pool[(off+j)%len(pool)]
			want[j] = refs[(off+j)%len(pool)]
			if ent.name != "" {
				items[j] = map[string]any{"type": ent.name}
			} else {
				items[j] = map[string]any{"table": ent.table}
			}
		}
		body, err := json.Marshal(map[string]any{"limit": limit, "items": items})
		if err != nil {
			return nil, err
		}
		p.batches = append(p.batches, &request{
			route: routeBatch, method: http.MethodPost, path: "/v1/classify/batch",
			body: body, items: int64(sz.batch), check: expectBatch(want),
		})
	}
	zoo, err := ref.Scan(ctx, limit)
	if err != nil {
		return nil, fmt.Errorf("reference zoo scan: %w", err)
	}
	zooWant := make([]verdict, len(zoo))
	for i, c := range zoo {
		zooWant[i] = verdict{c.ConsBand(), c.RconsBand()}
	}
	p.zoo = &request{
		route: routeZoo, method: http.MethodGet, path: fmt.Sprintf("/v1/zoo?limit=%d", limit),
		items: int64(len(zoo)), check: expectZoo(zooWant),
	}
	s3, err := types.ByName("S_3")
	if err != nil {
		return nil, err
	}
	w, err := ref.Search(ctx, s3, engine.Recording, limit)
	if err != nil {
		return nil, fmt.Errorf("reference search: %w", err)
	}
	p.search = &request{
		route: routeSearch, method: http.MethodGet,
		path:  fmt.Sprintf("/v1/search?type=S_3&property=recording&n=%d", limit),
		items: 1, check: expectFound(w != nil),
	}
	for off := 0; off < len(pool); off += sz.batch {
		p.warmup = append(p.warmup, p.batches[off])
	}
	p.warmup = append(p.warmup, p.zoo, p.search)
	return p, nil
}

func expectBatch(want []verdict) func([]byte) error {
	return func(body []byte) error {
		var got struct {
			OK    int `json:"ok"`
			Items []struct {
				OK             bool      `json:"ok"`
				Classification bandsJSON `json:"classification"`
			} `json:"items"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Items) != len(want) {
			return fmt.Errorf("%d batch items, want %d", len(got.Items), len(want))
		}
		for j, it := range got.Items {
			if !it.OK || it.Classification.verdict() != want[j] {
				return fmt.Errorf("batch item %d: ok=%v bands %v, want %v", j, it.OK, it.Classification.verdict(), want[j])
			}
		}
		return nil
	}
}

func expectZoo(want []verdict) func([]byte) error {
	return func(body []byte) error {
		var got struct {
			Results []bandsJSON `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(want) {
			return fmt.Errorf("%d zoo results, want %d", len(got.Results), len(want))
		}
		for i, r := range got.Results {
			if r.verdict() != want[i] {
				return fmt.Errorf("zoo entry %d: bands %v, want %v", i, r.verdict(), want[i])
			}
		}
		return nil
	}
}

func expectFound(want bool) func([]byte) error {
	return func(body []byte) error {
		var got struct {
			Found bool `json:"found"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Found != want {
			return fmt.Errorf("found=%v, want %v", got.Found, want)
		}
		return nil
	}
}

// startWarm builds a server with the given flags and fills its memos
// with the plan's warm-up requests.
func startWarm(ctx context.Context, e *env, c *http.Client, p *warmPlan, args ...string) (*server, error) {
	srv, err := startServer(args...)
	if err != nil {
		return nil, err
	}
	for _, r := range p.warmup {
		call(ctx, e, c, srv.url(), r)
	}
	if err := ctx.Err(); err != nil {
		srv.close()
		return nil, err
	}
	return srv, nil
}

// serveWarm: every answer comes from the serve and engine memos.
func serveWarm(ctx context.Context, e *env) (metricSet, error) {
	p, err := newWarmPlan(ctx, e)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	var srv *server
	var setups []float64
	for range e.cfg.size.setupReps {
		t0 := time.Now()
		s, err := startWarm(ctx, e, c, p, "-trace-sample", "0")
		if err != nil {
			if srv != nil {
				srv.close()
			}
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if srv != nil {
			srv.close()
		}
		srv = s
	}
	defer srv.close()

	heap := startHeapSampler()
	l := drive(ctx, e, c, srv.url(), 0, e.cfg.seconds, false, p.plan)
	peak := heap.finish()

	m := metricSet{}
	m.set("setup_s", setupMedian(e, setups), "s")
	m.set("ops_per_s", l.rate(), "1/s")
	m.set("work_per_s", float64(l.items)/l.elapsed.Seconds(), "1/s")
	q := latencySummary(m, l.all)
	m.set("peak_heap_mb", peak, "MB")
	fmt.Fprintf(e.log, "rcperf: serve-warm requests=%d items=%d latency samples=%d tail=p%g\n", l.ops, l.items, len(l.all), q*100)
	return m, nil
}

// ---- serve-cold: a replica restarting on a warm store ----

// coldSet is the seeded table sequence of serve-cold: no two tables
// share an exact fingerprint at n = 2 or 3, so every request misses
// every memo. refs holds the reference verdicts of the sampled indices.
type coldSet struct {
	tables [][]byte
	typs   []spec.Type
	refs   map[int]verdict
	reqs   []*request
}

// coldSeedSalt separates the serve-cold table stream from the serve-warm
// pool drawn from the same seed.
const coldSeedSalt = 0x5eed_c01d

func buildColdSet(ctx context.Context, e *env, n int) (*coldSet, error) {
	rng := rand.New(rand.NewSource(e.cfg.seed ^ coldSeedSalt))
	seen := map[string]bool{}
	set := &coldSet{refs: map[int]verdict{}}
	for len(set.tables) < n {
		raw, err := json.Marshal(atlas.Random(rng, 3, 2, 2).Custom())
		if err != nil {
			return nil, err
		}
		t, err := types.NewCustomFromJSON(raw)
		if err != nil {
			return nil, err
		}
		fresh := true
		var fps []string
		for k := 2; k <= limit; k++ {
			fp, ok := engine.Fingerprint(t, k)
			if !ok || seen[fp] {
				fresh = false
			}
			fps = append(fps, fp)
		}
		if !fresh {
			continue
		}
		for _, fp := range fps {
			seen[fp] = true
		}
		set.tables = append(set.tables, raw)
		set.typs = append(set.typs, t)
	}
	ref := engine.New(engine.Options{})
	for i, t := range set.typs {
		if !sampled(e.cfg.seed, i, e.cfg.size.checkEvery) {
			continue
		}
		v, err := classifyVerdict(ctx, ref, t)
		if err != nil {
			return nil, fmt.Errorf("reference classify: %w", err)
		}
		set.refs[i] = v
	}
	for i, raw := range set.tables {
		r := &request{
			route: routeClassifyPost, method: http.MethodPost,
			path: fmt.Sprintf("/v1/classify?limit=%d", limit), body: raw, items: 1,
		}
		if v, ok := set.refs[i]; ok {
			r.check = expectVerdict(v)
		}
		set.reqs = append(set.reqs, r)
	}
	return set, nil
}

func (set *coldSet) request(i int) *request { return set.reqs[i] }

// fillColdStore has a first server classify every table of set into a
// fresh store at dir (batch requests, so every table is searched and
// written through) and drains it, leaving the warm store a replica
// restarts on.
func fillColdStore(ctx context.Context, e *env, c *http.Client, set *coldSet, dir string) error {
	first, err := startServer("-store", dir, "-trace-sample", "0")
	if err != nil {
		return err
	}
	for off := 0; off < len(set.tables); off += e.cfg.size.batch {
		var items []map[string]any
		for _, raw := range set.tables[off:min(len(set.tables), off+e.cfg.size.batch)] {
			items = append(items, map[string]any{"table": json.RawMessage(raw)})
		}
		body, err := json.Marshal(map[string]any{"limit": limit, "items": items})
		if err != nil {
			first.close()
			return err
		}
		call(ctx, e, c, first.url(), &request{
			route: routeBatch, method: http.MethodPost, path: "/v1/classify/batch",
			body: body, items: int64(len(items)),
		})
	}
	if err := first.close(); err != nil {
		return fmt.Errorf("drain first server: %w", err)
	}
	return ctx.Err()
}

// coldRound is one serve-cold round: a replica opens the warm store
// with empty memos and is measured on every table in order.
type coldRound struct {
	setup    time.Duration
	load     *load
	peakHeap float64 // MiB, during the measured phase
	// persistHits and persistMisses are the replica's engine store
	// counters.
	persistHits, persistMisses float64
	shed, coalesced            float64
	stages                     stageStats
	spans                      []traceDump
}

func runColdRound(ctx context.Context, e *env, c *http.Client, set *coldSet, dir string, traced bool) (*coldRound, error) {
	args := []string{"-store", dir, "-trace-sample", "0"}
	if traced {
		args = []string{"-store", dir, "-trace-sample", "1", "-recorder", strconv.Itoa(len(set.tables) + 64)}
	}
	// Collect the previous round's garbage before this one is timed.
	runtime.GC()
	t0 := time.Now()
	replica, err := startServer(args...)
	if err != nil {
		return nil, err
	}
	defer replica.close()
	out := &coldRound{setup: time.Since(t0)}
	heap := startHeapSampler()
	out.load = drive(ctx, e, c, replica.url(), len(set.tables), 0, traced, set.request)
	out.peakHeap = heap.finish()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	got, err := scrape(ctx, c, replica.url(), "rc_engine_persist_hits_total", "rc_engine_persist_misses_total",
		"rc_http_shed_total", "rc_http_coalesced_total")
	if err != nil {
		return nil, err
	}
	out.persistHits, out.persistMisses = got["rc_engine_persist_hits_total"], got["rc_engine_persist_misses_total"]
	out.shed, out.coalesced = got["rc_http_shed_total"], got["rc_http_coalesced_total"]
	if out.persistMisses > 0 {
		e.tally.fail("serve-cold replica: %g store misses, want every table answered by the store", out.persistMisses)
	}
	if traced {
		out.stages, out.spans, err = pullTraces(ctx, e, c, replica.url(), "serve-cold", out.load.traces)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveCold: every request misses every memo and is answered by a
// store read.
func serveCold(ctx context.Context, e *env) (metricSet, error) {
	set, err := buildColdSet(ctx, e, e.cfg.size.coldTables)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	dir := filepath.Join(e.dir, "store")
	defer os.RemoveAll(dir)
	t0 := time.Now()
	if err := fillColdStore(ctx, e, c, set, dir); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "rcperf: serve-cold store filled with %d tables in %.2fs\n", len(set.tables), time.Since(t0).Seconds())
	var setups, rates, p50s, tails []float64
	var measured time.Duration
	var ops int64
	peak := 0.0
	// The tail is p90, not p99: a few requests in a hundred overlap a
	// garbage collection and take several times the median, and p99 sits
	// on the edge of that group, where it jumps with the collector's
	// timing on a shared host. p90 stays inside the ordinary requests.
	const q = 0.9
	for measured < e.cfg.seconds || len(rates) < 3 {
		r, err := runColdRound(ctx, e, c, set, dir, false)
		if err != nil {
			return nil, err
		}
		peak = max(peak, r.peakHeap)
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.load.ops)/r.load.elapsed.Seconds())
		p50s = append(p50s, quantile(r.load.all, 0.5))
		tails = append(tails, quantile(r.load.all, q))
		measured += r.load.elapsed
		ops += r.load.ops
	}
	fmt.Fprintf(e.log, "rcperf: serve-cold round rates %.4v/s, p50 %.4v ms, p%g %.4v ms\n", rates, p50s, q*100, tails)
	// Every figure is the median over rounds, so one round that a
	// neighbour's burst slowed does not move it. Every request serves one
	// item, so both rates are requests/s.
	m := metricSet{}
	m.set("setup_s", setupMedian(e, setups), "s")
	m.set("ops_per_s", median(rates), "1/s")
	m.set("work_per_s", median(rates), "1/s")
	m.set("latency_p50_ms", median(p50s), "ms")
	m.set("latency_tail_ms", median(tails), "ms")
	m.set("peak_heap_mb", peak, "MB")
	fmt.Fprintf(e.log, "rcperf: serve-cold rounds=%d requests=%d tail=p%g\n", len(rates), ops, q*100)
	return m, nil
}
