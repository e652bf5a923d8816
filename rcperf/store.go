package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rcons/internal/engine"
	"rcons/internal/store"
)

// timedStore is the engine's persistence backend with every Get and Put
// timed: the benchmark's own span around each store call.
type timedStore struct {
	st *store.Store

	mu   sync.Mutex
	gets []float64 // µs
	puts []float64 // µs
}

func (s *timedStore) Get(ctx context.Context, kind, key string) ([]byte, bool, error) {
	t0 := time.Now()
	data, ok, err := s.st.Get(ctx, kind, key)
	d := us(time.Since(t0))
	s.mu.Lock()
	s.gets = append(s.gets, d)
	s.mu.Unlock()
	return data, ok, err
}

func (s *timedStore) Put(ctx context.Context, kind, key string, payload []byte) error {
	t0 := time.Now()
	err := s.st.Put(ctx, kind, key, payload)
	d := us(time.Since(t0))
	s.mu.Lock()
	s.puts = append(s.puts, d)
	s.mu.Unlock()
	return err
}

// storeLayers replays serve-cold's store traffic through store.Open and
// the engine: a first engine classifies every other table into a fresh
// store, then a second engine on the reopened store classifies them all.
func storeLayers(ctx context.Context, e *env, set *coldSet, m metricSet) error {
	dir := filepath.Join(e.dir, "store-replay")
	defer os.RemoveAll(dir)
	n := min(e.cfg.size.storeTables, len(set.typs))

	first, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	engA := engine.New(engine.Options{Persist: &timedStore{st: first}})
	warmed := make(map[int]verdict, n/2+1)
	for i := 0; i < n; i += 2 {
		v, err := classifyVerdict(ctx, engA, set.typs[i])
		if err != nil {
			return fmt.Errorf("store replay classify: %w", err)
		}
		warmed[i] = v
	}

	second, err := store.Open(dir, store.Options{})
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	ts := &timedStore{st: second}
	engB := engine.New(engine.Options{Persist: ts})
	for i := 0; i < n; i++ {
		v, err := classifyVerdict(ctx, engB, set.typs[i])
		if err != nil {
			return fmt.Errorf("store replay classify: %w", err)
		}
		want, ok := set.refs[i]
		if !ok {
			want, ok = warmed[i]
		}
		if ok && v != want {
			e.tally.fail("store replay table %d: bands %v, want %v", i, v, want)
			continue
		}
		e.tally.pass()
	}
	st := second.Stats()
	gets := float64(max(1, st.MemHits+st.DiskHits+st.Misses))
	m.set("store.disk_hit_ratio", float64(st.DiskHits)/gets, "ratio")
	m.set("store.mem_hit_ratio", float64(st.MemHits)/gets, "ratio")
	m.set("store.puts", float64(st.Puts), "count")
	setLatency(m, "store.get", ts.gets, "us")
	setLatency(m, "store.put", ts.puts, "us")
	return nil
}
