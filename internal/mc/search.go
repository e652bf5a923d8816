package mc

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"rcons/internal/intern"
	"rcons/internal/obs"
	"rcons/internal/sim"
)

// violation is an internal violation record before minimization.
type violation struct {
	schedule []sim.Action
	err      error
}

// search carries the shared state of one Check invocation across
// deepening rounds, worker goroutines and the swarm fallback.
type search struct {
	tgt   Target
	opts  Options
	start time.Time

	nodes        atomic.Int64
	pruned       atomic.Int64
	completions  atomic.Int64
	boundaryHits atomic.Int64
	swarmRuns    atomic.Int64
	depthReached atomic.Int64
	rounds       int
	exceeded     atomic.Bool
	// curDepth and frontier exist only for progress reporting: the
	// deepening round in flight and the number of root subtrees not yet
	// finished in it.
	curDepth atomic.Int64
	frontier atomic.Int64
}

// progress samples the search counters for the progress publisher. It
// reads only atomics, so it is safe concurrently with the search and
// perturbs nothing.
func (s *search) progress(trace string) obs.Progress {
	nodes := s.nodes.Load() + s.swarmRuns.Load()
	elapsed := time.Since(s.start)
	var rate float64
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(nodes) / secs
	}
	return obs.Progress{
		Task:        "mc",
		TraceID:     trace,
		Nodes:       nodes,
		NodesPerSec: rate,
		Depth:       int(s.curDepth.Load()),
		Frontier:    s.frontier.Load(),
		Elapsed:     elapsed,
	}
}

func (s *search) snapshotStats() Stats {
	return Stats{
		Nodes:        int(s.nodes.Load()),
		Pruned:       int(s.pruned.Load()),
		Completions:  int(s.completions.Load()),
		BoundaryHits: int(s.boundaryHits.Load()),
		SwarmRuns:    int(s.swarmRuns.Load()),
		Rounds:       s.rounds,
		DepthReached: int(s.depthReached.Load()),
	}
}

// runScript executes one scripted prefix of the target. halt selects
// prefix enumeration (stop at script end) versus full execution (extend
// the prefix with the deterministic crash-free fair completion). The
// incremental fingerprint needs only the O(1) rolling digests; a test
// oracle (Options.fingerprintOracle) gets the full event trace.
func (s *search) runScript(script []sim.Action, halt bool) ([]sim.Value, *sim.Memory, *sim.Outcome, error) {
	m, bodies, inputs := s.tgt.Factory()
	cfg := sim.Config{
		Model:              s.tgt.Model,
		Script:             script,
		HaltAtScriptEnd:    halt,
		FairCompletion:     !halt,
		DecideRequiresStep: true,
		MaxSteps:           s.opts.MaxSteps,
	}
	r := sim.NewRunner(m, bodies, cfg)
	if s.opts.fingerprintOracle != nil {
		r.RecordTrace()
	} else {
		r.RecordDigests()
	}
	r.RecordSchedule()
	out, err := r.Run()
	return inputs, m, out, err
}

// fingerprint hashes the configuration a prefix reached: the non-volatile
// heap, each process's decision or event history since its last crash
// (bodies are deterministic, so that history pins down the process's
// local state exactly), and the crash usage. For clock-sensitive targets
// — bodies observing sim.Proc.Now — every event additionally carries its
// global position in the execution, because such a body's local state
// depends on WHEN (in global steps) it ran, not just on what it observed;
// this makes fingerprints nearly path-unique and costs most of the
// pruning, but keeps it sound.
//
// It combines digests that were maintained incrementally DURING the
// run — Memory.Digest for the heap, Outcome.EventHashes/ClockHashes for
// the histories — so the per-node cost is O(processes) integer mixing
// with zero allocation. The tests keep a textual Snapshot+trace+SHA-256
// pipeline as an independent oracle and can swap it in through
// Options.fingerprintOracle.
func (s *search) fingerprint(out *sim.Outcome, m *sim.Memory, crashesUsed int) Fingerprint {
	if s.opts.fingerprintOracle != nil {
		return s.opts.fingerprintOracle(s.tgt, out, m, crashesUsed)
	}
	return s.incrementalFingerprint(out, m, crashesUsed)
}

// Per-process state tags keep the three cases (decided, running, running
// under a clock-sensitive body) in disjoint digest families.
const (
	fpDecided uint64 = 0xD1
	fpRunning uint64 = 0xD2
	fpClocked uint64 = 0xD3
)

func (s *search) incrementalFingerprint(out *sim.Outcome, m *sim.Memory, crashesUsed int) Fingerprint {
	h := m.Digest()
	p := uint64(len(out.Decided))
	for i, decided := range out.Decided {
		var w uint64
		switch {
		case decided:
			w = intern.MixPair(fpDecided, uint64(intern.ID(out.Decisions[i])))
		case s.tgt.ClockSensitive:
			w = intern.MixPair(fpClocked, out.ClockHashes[i])
		default:
			w = intern.MixPair(fpRunning, out.EventHashes[i])
		}
		p = intern.MixPair(p, w)
	}
	p = intern.MixPair(p, uint64(crashesUsed))
	return Fingerprint{intern.MixPair(h, p), intern.MixPair(p, h)}
}

// rootDepth is the prefix length at which the search hands subtrees to
// the worker pool; 2 levels give branching² ≥ workers roots for n ≥ 2
// while keeping the sequential enumeration trivial.
const rootDepth = 2

// round runs one iterative-deepening round at the given depth bound. It
// returns the first violation in canonical order (nil when safe so far)
// and whether the round closed the search (no leaf hit the depth bound).
func (s *search) round(ctx context.Context, depth int) (*violation, bool, error) {
	s.rounds++
	hitsBefore := s.boundaryHits.Load()

	roots, viol, err := s.enumerateRoots(ctx, depth)
	if err != nil || viol != nil {
		return viol, false, err
	}
	if s.exceeded.Load() {
		return nil, false, nil
	}

	roots, err = s.dedupRoots(ctx, roots)
	if err != nil {
		return nil, false, err
	}

	viol, err = s.searchRoots(ctx, roots, depth)
	if err != nil || viol != nil {
		return viol, false, err
	}
	closed := !s.exceeded.Load() && s.boundaryHits.Load() == hitsBefore
	return nil, closed, nil
}

// node holds one root prefix together with its crash usage.
type node struct {
	script  []sim.Action
	crashes int
}

// enumerateRoots explores the first rootDepth levels sequentially (in
// canonical order, so violations found here are deterministic) and
// returns the live frontier prefixes to be partitioned across workers.
func (s *search) enumerateRoots(ctx context.Context, depth int) ([]node, *violation, error) {
	frontier := []node{{}}
	for level := 0; level < min(rootDepth, depth); level++ {
		var next []node
		for _, nd := range frontier {
			ext, viol, err := s.expand(ctx, nd, depth)
			if err != nil || viol != nil {
				return nil, viol, err
			}
			next = append(next, ext...)
		}
		frontier = next
	}
	return frontier, nil, nil
}

// expand executes one prefix, checks it, and returns its enabled
// one-action extensions (empty when all processes decided or the node
// was pruned — roots are never pruned, see dfs).
func (s *search) expand(ctx context.Context, nd node, depth int) ([]node, *violation, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if s.nodes.Add(1) > int64(s.opts.NodeBudget) {
		s.exceeded.Store(true)
		return nil, nil, nil
	}
	s.observeDepth(len(nd.script))

	inputs, m, out, err := s.runScript(nd.script, true)
	if err != nil {
		return nil, &violation{schedule: out.Schedule, err: err}, nil
	}
	if cerr := s.tgt.Check(inputs, m, out); cerr != nil {
		return nil, &violation{schedule: out.Schedule, err: cerr}, nil
	}
	live := liveProcs(out)
	if len(live) == 0 {
		s.completions.Add(1)
		return nil, nil, nil
	}
	return s.extensions(nd, live), nil, nil
}

// extensions lists nd's one-action continuations in canonical order:
// steps of every live process first, then crash placements while budget
// remains. Exploring all step extensions before any crash extension
// biases the first violation found toward fewer crashes — the implicit
// crash-budget deepening companion to the explicit depth deepening.
func (s *search) extensions(nd node, live []int) []node {
	var out []node
	for _, p := range live {
		out = append(out, node{script: appendAction(nd.script, sim.Step(p)), crashes: nd.crashes})
	}
	if nd.crashes < s.opts.CrashBudget {
		if s.tgt.Model == sim.Simultaneous {
			out = append(out, node{script: appendAction(nd.script, sim.CrashAll()), crashes: nd.crashes + 1})
		} else {
			for _, p := range live {
				out = append(out, node{script: appendAction(nd.script, sim.Crash(p)), crashes: nd.crashes + 1})
			}
		}
	}
	return out
}

func appendAction(script []sim.Action, a sim.Action) []sim.Action {
	return append(append(make([]sim.Action, 0, len(script)+1), script...), a)
}

func liveProcs(out *sim.Outcome) []int {
	var live []int
	for i, d := range out.Decided {
		if !d {
			live = append(live, i)
		}
	}
	return live
}

func (s *search) observeDepth(d int) {
	for {
		cur := s.depthReached.Load()
		if int64(d) <= cur || s.depthReached.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// dedupRoots drops root prefixes that reach a configuration an earlier
// root already reached with the same crash usage (and, by construction,
// the same remaining depth — every root has the same script length).
// Such a root's bounded subtree and every leaf completion in it are an
// exact replay of its twin's — the same argument that justifies dfs's
// within-root fingerprint pruning, applied across roots — so dropping
// it changes no verdict. Dropping only LATER duplicates of earlier
// roots, sequentially in canonical root order, also preserves the
// reported counterexample byte-for-byte: the lowest-indexed root whose
// subtree violates is never dropped (its earlier twin would violate
// too), and within it the canonical first-in-order violation is
// unchanged. Dropped roots are counted as pruned; the probe executions
// are root-enumeration bookkeeping, not search nodes.
func (s *search) dedupRoots(ctx context.Context, roots []node) ([]node, error) {
	if len(roots) < 2 {
		return roots, nil
	}
	type rootKey struct {
		fp      Fingerprint
		crashes int
	}
	seen := make(map[rootKey]bool, len(roots))
	out := roots[:0]
	for _, nd := range roots {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, m, o, err := s.runScript(nd.script, true)
		if err != nil {
			// A violating root must survive to be (re)discovered and
			// reported by dfs in canonical order.
			out = append(out, nd)
			continue
		}
		key := rootKey{fp: s.fingerprint(o, m, nd.crashes), crashes: nd.crashes}
		if seen[key] {
			s.pruned.Add(1)
			continue
		}
		seen[key] = true
		out = append(out, nd)
	}
	return out, nil
}

// searchRoots fans the root subtrees out over the worker pool. To keep
// the reported violation independent of worker count and scheduling, the
// pool tracks the lowest root index that produced a violation, stops
// claiming later roots, and cancels later in-flight subtrees; earlier
// subtrees run to completion because they could still yield the
// canonical (first-in-order) violation.
//
// Determinism caveat: the guarantee holds only while the search stays
// within NodeBudget. Near the budget, workers race the shared node
// counter, so WHERE the search is truncated — and hence whether a
// violation is seen before the swarm fallback takes over — is
// scheduling-dependent. Such runs are labelled Exhaustive: false.
func (s *search) searchRoots(ctx context.Context, roots []node, depth int) (*violation, error) {
	if len(roots) == 0 {
		return nil, nil
	}
	// The frontier gauge counts roots not yet finished this round. Every
	// root leaves it exactly once: when its subtree search returns, when
	// a worker claims-and-skips it after a lower root's violation made it
	// obsolete, or in the post-wait sweep for roots no worker claimed
	// (budget-exhausted early exits). No blanket reset hides an
	// accounting miss, so a nonzero final frontier is a real leak.
	s.frontier.Store(int64(len(roots)))
	workers := min(s.opts.Workers, len(roots))
	var (
		mu      sync.Mutex
		next    int
		bestIdx = len(roots)
		viols   = make([]*violation, len(roots))
		active  = map[int]context.CancelFunc{}
	)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				if i >= len(roots) {
					mu.Unlock()
					return
				}
				if i >= bestIdx {
					// Obsolete root: a lower-indexed subtree already
					// produced the canonical violation. Claim it so it
					// leaves the frontier, and keep draining.
					mu.Unlock()
					s.frontier.Add(-1)
					continue
				}
				rctx, cancel := context.WithCancel(ctx)
				active[i] = cancel
				mu.Unlock()

				visited := map[Fingerprint]uint64{}
				v, err := s.dfs(rctx, roots[i], depth, visited)
				s.frontier.Add(-1)

				mu.Lock()
				delete(active, i)
				cancel()
				// A cancellation we triggered ourselves (the subtree
				// became obsolete) is not a failure; real context
				// cancellation surfaces via ctx.Err() after Wait.
				if err == nil && v != nil && i < bestIdx {
					bestIdx = i
					viols[i] = v
					for j, c := range active {
						if j > i {
							c()
						}
					}
				}
				mu.Unlock()
				if s.exceeded.Load() {
					return
				}
			}
		}()
	}
	wg.Wait()
	// Workers exit without draining when the node budget trips (or the
	// context dies); account for the roots nobody claimed.
	if next < len(roots) {
		s.frontier.Add(-int64(len(roots) - next))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if bestIdx < len(roots) {
		return viols[bestIdx], nil
	}
	return nil, nil
}

// dfs exhaustively explores all continuations of nd up to the depth
// bound, pruning prefixes that reach an already-explored configuration
// with EXACTLY the same remaining depth. Exact matching (rather than
// "no more remaining than before") keeps the pruning argument airtight:
// a pruned node has an identical twin — same configuration, same
// remaining depth — whose whole subtree, including every depth-bound
// leaf's fair completion, was already explored, so the pruned subtree's
// execution set is literally a replay. With ≥-matching the twin's leaf
// completions start at different round-robin offsets, and the pruned
// leaf's exact completion might never be simulated.
func (s *search) dfs(ctx context.Context, nd node, depth int, visited map[Fingerprint]uint64) (*violation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.nodes.Add(1) > int64(s.opts.NodeBudget) {
		s.exceeded.Store(true)
		return nil, nil
	}
	s.observeDepth(len(nd.script))

	inputs, m, out, err := s.runScript(nd.script, true)
	if err != nil {
		return &violation{schedule: out.Schedule, err: err}, nil
	}
	if cerr := s.tgt.Check(inputs, m, out); cerr != nil {
		return &violation{schedule: out.Schedule, err: cerr}, nil
	}
	live := liveProcs(out)
	if len(live) == 0 {
		s.completions.Add(1)
		return nil, nil
	}

	remaining := depth - len(nd.script)
	fp := s.fingerprint(out, m, nd.crashes)
	// visited holds a bitmask of remaining depths already explored for
	// each configuration (remaining < 64 always: depths are small).
	bit := uint64(1) << uint(remaining)
	if visited[fp]&bit != 0 {
		s.pruned.Add(1)
		return nil, nil
	}
	visited[fp] |= bit

	if remaining <= 0 {
		s.boundaryHits.Add(1)
		return s.checkCompletion(nd)
	}
	for _, ext := range s.extensions(nd, live) {
		v, err := s.dfs(ctx, ext, depth, visited)
		if err != nil || v != nil {
			return v, err
		}
		if s.exceeded.Load() {
			return nil, nil
		}
	}
	return nil, nil
}

// checkCompletion extends a depth-bound leaf with the deterministic fair
// completion and checks the resulting full execution.
func (s *search) checkCompletion(nd node) (*violation, error) {
	inputs, m, out, err := s.runScript(nd.script, false)
	s.completions.Add(1)
	if err != nil {
		return &violation{schedule: out.Schedule, err: err}, nil
	}
	if cerr := s.tgt.Check(inputs, m, out); cerr != nil {
		return &violation{schedule: out.Schedule, err: cerr}, nil
	}
	return nil, nil
}
