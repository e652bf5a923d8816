package main

// The traced pass (--trace 1). It measures every layer on the seed's
// inputs, whichever workload is named, so every per-layer metric is
// printed by every traced run:
//
//   - serve-warm and serve-cold run once untraced (client-side route
//     latencies, /metrics counters) and once at -trace-sample 1 with a
//     client-minted X-RC-Trace on every request; each trace is pulled
//     from GET /debug/requests/{trace} and folded into per-span counts
//     and self times;
//   - census-cold, the store and mc-safe are replayed through the public
//     calls, timed by the benchmark's own spans (an obs.Tracer owned by
//     the benchmark, so the program's own spans nest beneath them).
//
// Every span is kept in memory and written to the workdir at the end.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rcons/internal/obs"
)

// spanNode is one span of a trace tree, in the shape GET
// /debug/requests/{trace} serves.
type spanNode struct {
	Name       string      `json:"name"`
	StartUS    float64     `json:"start_us"`
	DurationUS float64     `json:"duration_us"`
	Spans      []*spanNode `json:"spans"`
}

// traceDump is one trace as written to the span dump.
type traceDump struct {
	Source string      `json:"source"`
	Trace  string      `json:"trace"`
	Spans  []*spanNode `json:"spans"`
}

// stageAcc accumulates one span name across traces.
type stageAcc struct {
	count  int64
	selfUS float64
	durUS  []float64
}

type stageStats map[string]*stageAcc

func (s stageStats) get(name string) *stageAcc {
	if a := s[name]; a != nil {
		return a
	}
	a := &stageAcc{}
	s[name] = a
	return a
}

// fold adds the spans of one tree; a trace's root span, whatever its
// route, accumulates under "root".
func (s stageStats) fold(nodes []*spanNode, root bool) {
	for _, n := range nodes {
		name := n.Name
		if root {
			name = "root"
		}
		a := s.get(name)
		a.count++
		a.selfUS += selfTime(n)
		a.durUS = append(a.durUS, n.DurationUS)
		s.fold(n.Spans, false)
	}
}

// selfTime is a span's duration minus the part of its interval that
// its children cover.
func selfTime(n *spanNode) float64 {
	type interval struct{ a, b float64 }
	end := n.StartUS + n.DurationUS
	ivs := make([]interval, 0, len(n.Spans))
	for _, c := range n.Spans {
		a, b := max(c.StartUS, n.StartUS), min(c.StartUS+c.DurationUS, end)
		if b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := 0.0
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		covered += b - a
	}
	return max(0, n.DurationUS-covered)
}

// setStage reports one span name's count and, when requested, its mean
// self time per span.
func setStage(m metricSet, prefix string, s stageStats, name string, withSelf bool) {
	a := s.get(name)
	m.set(prefix+name+".count", float64(a.count), "count")
	if withSelf {
		mean := 0.0
		if a.count > 0 {
			mean = a.selfUS / float64(a.count) / 1000
		}
		m.set(prefix+name+".self_ms", mean, "ms")
	}
}

// pullTraces fetches every trace from the server's flight recorder and
// folds it. A trace the recorder did not keep is a failed check.
func pullTraces(ctx context.Context, e *env, c *http.Client, base, source string, ids []string) (stageStats, []traceDump, error) {
	stages := stageStats{}
	dumps := make([]traceDump, 0, len(ids))
	for _, id := range ids {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/requests/"+id, nil)
		if err != nil {
			return nil, nil, err
		}
		resp, err := c.Do(req)
		if err != nil {
			return nil, nil, fmt.Errorf("pull trace %s: %w", id, err)
		}
		var tree struct {
			Spans []*spanNode `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tree)
		status := resp.StatusCode
		resp.Body.Close()
		if status != http.StatusOK || err != nil || len(tree.Spans) == 0 {
			e.tally.fail("trace %s: status %d, %d root spans, decode error %v", id, status, len(tree.Spans), err)
			continue
		}
		e.tally.pass()
		stages.fold(tree.Spans, true)
		dumps = append(dumps, traceDump{Source: source, Trace: id, Spans: tree.Spans})
	}
	return stages, dumps, nil
}

// recordedTrees converts the benchmark tracer's retained traces to
// span trees (offsets in µs from each trace's start).
func recordedTrees(rec *obs.Recorder, source string) []traceDump {
	var out []traceDump
	for _, tr := range rec.Recent() {
		nodes := make(map[uint32]*spanNode, len(tr.Spans))
		for _, sp := range tr.Spans {
			nodes[sp.ID] = &spanNode{
				Name:       sp.Name,
				StartUS:    us(sp.Start.Sub(tr.Start)),
				DurationUS: us(sp.Duration),
				Spans:      []*spanNode{},
			}
		}
		var roots []*spanNode
		for _, sp := range tr.Spans {
			if parent, ok := nodes[sp.Parent]; ok && sp.Parent != sp.ID {
				parent.Spans = append(parent.Spans, nodes[sp.ID])
			} else {
				roots = append(roots, nodes[sp.ID])
			}
		}
		out = append(out, traceDump{Source: source, Trace: tr.TraceID, Spans: roots})
	}
	return out
}

// setLatency reports a p50 and a p99 of samples under prefix.
func setLatency(m metricSet, prefix string, xs []float64, unit string) {
	m.set(prefix+".p50_"+unit, quantile(xs, 0.5), unit)
	m.set(prefix+".p99_"+unit, quantile(xs, 0.99), unit)
}

// layers runs the traced pass.
func layers(ctx context.Context, e *env) (metricSet, error) {
	m := metricSet{}
	var dumps []traceDump
	var set *coldSet
	phases := []struct {
		name string
		run  func() ([]traceDump, error)
	}{
		{"serve-warm", func() ([]traceDump, error) { return warmLayers(ctx, e, m) }},
		{"serve-cold", func() (d []traceDump, err error) {
			if set, err = buildColdSet(ctx, e, e.cfg.size.coldTables); err != nil {
				return nil, err
			}
			return coldLayers(ctx, e, set, m)
		}},
		{"store", func() ([]traceDump, error) { return nil, storeLayers(ctx, e, set, m) }},
		{"census", func() ([]traceDump, error) { return censusLayers(ctx, e, m) }},
		{"mc", func() ([]traceDump, error) { return nil, mcLayers(ctx, e, m) }},
	}
	for _, p := range phases {
		t0 := time.Now()
		d, err := p.run()
		if err != nil {
			return nil, err
		}
		dumps = append(dumps, d...)
		fmt.Fprintf(e.log, "rcperf: traced pass: %s layers took %.1fs\n", p.name, time.Since(t0).Seconds())
	}
	if err := writeDump(e, dumps); err != nil {
		return nil, err
	}
	return m, nil
}

// writeDump writes every kept span tree, one trace per line.
func writeDump(e *env, dumps []traceDump) error {
	path := filepath.Join(e.cfg.workdir, fmt.Sprintf("rcperf-spans-%s-%d.jsonl", e.cfg.workload, e.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range dumps {
		if err := enc.Encode(&dumps[i]); err != nil {
			f.Close()
			return fmt.Errorf("write span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write span dump: %w", err)
	}
	fmt.Fprintf(e.log, "rcperf: %d traces written to %s\n", len(dumps), path)
	return nil
}

// warmLayers measures the serve-warm rotation untraced, then traced.
func warmLayers(ctx context.Context, e *env, m metricSet) ([]traceDump, error) {
	p, err := newWarmPlan(ctx, e)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	n := e.cfg.size.warmTraced
	plain, err := startWarm(ctx, e, c, p, "-trace-sample", "0")
	if err != nil {
		return nil, err
	}
	defer plain.close()
	traced, err := startWarm(ctx, e, c, p, "-trace-sample", "1", "-recorder", fmt.Sprint(n+64))
	if err != nil {
		return nil, err
	}
	defer traced.close()

	counters := []string{"rc_engine_memo_hits_total", "rc_engine_memo_misses_total", "rc_http_shed_total", "rc_http_coalesced_total"}
	before, err := scrape(ctx, c, plain.url(), counters...)
	if err != nil {
		return nil, err
	}
	lp := drive(ctx, e, c, plain.url(), n, 0, false, p.plan)
	after, err := scrape(ctx, c, plain.url(), counters...)
	if err != nil {
		return nil, err
	}
	lt := drive(ctx, e, c, traced.url(), n, 0, true, p.plan)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tc, err := scrape(ctx, c, traced.url(), counters...)
	if err != nil {
		return nil, err
	}
	stages, dumps, err := pullTraces(ctx, e, c, traced.url(), "serve-warm", lt.traces)
	if err != nil {
		return nil, err
	}

	setLatency(m, "serve.classify_get", lp.lat[routeClassifyGet], "ms")
	setLatency(m, "serve.batch", lp.lat[routeBatch], "ms")
	m.set("serve.zoo.p99_ms", quantile(lp.lat[routeZoo], 0.99), "ms")
	m.set("serve.search.p99_ms", quantile(lp.lat[routeSearch], 0.99), "ms")
	m.set("serve.shed", after["rc_http_shed_total"]+tc["rc_http_shed_total"], "count")
	m.set("serve.coalesced", after["rc_http_coalesced_total"]+tc["rc_http_coalesced_total"], "count")
	hits := after["rc_engine_memo_hits_total"] - before["rc_engine_memo_hits_total"]
	misses := after["rc_engine_memo_misses_total"] - before["rc_engine_memo_misses_total"]
	m.set("engine.memo_hit_ratio", hits/max(1, hits+misses), "ratio")
	plainRate := float64(lp.ops) / lp.elapsed.Seconds()
	tracedRate := float64(lt.ops) / lt.elapsed.Seconds()
	m.set("obs.trace_overhead_pct", 100*(plainRate-tracedRate)/plainRate, "%")
	setStage(m, "stage.warm.", stages, "root", true)
	setStage(m, "stage.warm.", stages, "flight.lead", true)
	setStage(m, "stage.warm.", stages, "flight.wait", false)
	fmt.Fprintf(e.log, "rcperf: serve-warm traced pass: route samples get=%d post=%d batch=%d zoo=%d search=%d\n",
		len(lp.lat[routeClassifyGet]), len(lp.lat[routeClassifyPost]), len(lp.lat[routeBatch]),
		len(lp.lat[routeZoo]), len(lp.lat[routeSearch]))
	return dumps, nil
}

// coldLayers fills one store and runs one untraced and one traced
// replica round on it.
func coldLayers(ctx context.Context, e *env, set *coldSet, m metricSet) ([]traceDump, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	dir := filepath.Join(e.dir, "cold-store")
	defer os.RemoveAll(dir)
	if err := fillColdStore(ctx, e, c, set, dir); err != nil {
		return nil, err
	}
	plain, err := runColdRound(ctx, e, c, set, dir, false)
	if err != nil {
		return nil, err
	}
	traced, err := runColdRound(ctx, e, c, set, dir, true)
	if err != nil {
		return nil, err
	}
	setLatency(m, "serve.classify_post", plain.load.lat[routeClassifyPost], "ms")
	m.set("serve.shed", m["serve.shed"].Value+plain.shed+traced.shed, "count")
	m.set("serve.coalesced", m["serve.coalesced"].Value+plain.coalesced+traced.coalesced, "count")
	m.set("engine.persist_hit_ratio", plain.persistHits/max(1, plain.persistHits+plain.persistMisses), "ratio")
	for _, name := range []string{"root", "flight.lead", "engine.classify", "engine.persist", "store.local"} {
		setStage(m, "stage.cold.", traced.stages, name, true)
	}
	setStage(m, "stage.cold.", traced.stages, "flight.wait", false)
	return traced.spans, nil
}
