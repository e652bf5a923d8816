package mc

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rcons/internal/intern"
	"rcons/internal/obs"
	"rcons/internal/ordered"
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
	replays      atomic.Int64
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
		Replays:      int(s.replays.Load()),
		Completions:  int(s.completions.Load()),
		BoundaryHits: int(s.boundaryHits.Load()),
		SwarmRuns:    int(s.swarmRuns.Load()),
		Rounds:       s.rounds,
		DepthReached: int(s.depthReached.Load()),
	}
}

// worker is what one search goroutine keeps across the executions it
// starts: its pool of coroutines, the one instance of the target it
// builds with Target.Factory on its first execution and resets for
// every later one, and the one runner that executes on that instance,
// built on the first execution and reset for every later one. The
// worker never closes the runner: whoever starts or continues an
// execution closes it when done with it (dfs, expand and dedupRoots on
// return, visit on a violation), so between nodes the runner is always
// finished, and the pool's Close, when the worker's goroutine ends,
// ends the idle coroutines.
type worker struct {
	pool   sim.Pool
	m      *sim.Memory
	bodies []sim.Body
	inputs []sim.Value
	r      *sim.Runner
	// live is a stack of the undecided processes of the dfs nodes on
	// the current path, each node's run above its parent's.
	live []int
	// visited is the fingerprint set of the root dfs in flight, cleared
	// for each root.
	visited map[Fingerprint]uint64
}

// instance returns the worker's target instance, ready for a new
// execution: built and marked on first use, reset to the mark after.
// The worker runs one execution at a time — dfs closes every run before
// a later sibling starts fresh — and Memory.Reset and Runner.Reset check
// that rather than trusting it, panicking while the previous execution
// is paused.
func (w *worker) instance(tgt Target) (*sim.Memory, []sim.Body, []sim.Value) {
	if w.m == nil {
		w.m, w.bodies, w.inputs = tgt.Factory()
		w.m.Mark()
	} else {
		w.m.Reset()
	}
	return w.m, w.bodies, w.inputs
}

// fresh executes script from the start on w's target instance, reset
// to its initial contents, with w's runner, reset likewise, on
// coroutines from w's pool, and pauses it at the script's end
// (sim.Runner.Start). It is the search's only way to begin an
// execution, and the executions it begins are what Stats.Replays
// counts. Run on the paused runner extends the prefix with the
// deterministic crash-free fair completion. The incremental fingerprint
// needs only the O(1) rolling digests; a test oracle
// (Options.fingerprintOracle) gets the full event trace. The outcome is
// the runner's pause view. On an error the runner has already been torn
// down.
func (s *search) fresh(w *worker, script []sim.Action) (*sim.Outcome, error) {
	s.replays.Add(1)
	m, bodies, _ := w.instance(s.tgt)
	if w.r != nil {
		w.r.Reset(script)
		return w.r.Start()
	}
	w.r = w.pool.NewRunner(m, bodies, sim.Config{
		Model:              s.tgt.Model,
		Script:             script,
		FairCompletion:     true,
		DecideRequiresStep: true,
		MaxSteps:           s.opts.MaxSteps,
	})
	if s.opts.fingerprintOracle != nil {
		w.r.RecordTrace()
	} else {
		w.r.RecordDigests()
	}
	w.r.RecordSchedule()
	return w.r.Start()
}

// violation reports how w's execution failed to reach out: a simulator
// error, or else the target's checker rejecting the outcome. It returns
// nil for a correct execution. The violation keeps a copy of the
// schedule, since the runner reuses its buffer.
func (s *search) violation(w *worker, out *sim.Outcome, err error) *violation {
	if err == nil {
		err = s.tgt.Check(w.inputs, w.m, out)
	}
	if err != nil {
		return &violation{schedule: slices.Clone(out.Schedule), err: err}
	}
	return nil
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

	roots, viol, err := s.rootPrefixes(ctx, depth)
	if err != nil || viol != nil {
		return viol, false, err
	}
	if s.exceeded.Load() {
		return nil, false, nil
	}

	viol, err = s.searchRoots(ctx, roots, depth)
	if err != nil || viol != nil {
		return viol, false, err
	}
	closed := !s.exceeded.Load() && s.boundaryHits.Load() == hitsBefore
	return nil, closed, nil
}

// node is a schedule prefix together with its crash usage.
type node struct {
	script  []sim.Action
	crashes int
}

// rootPrefixes is the round's sequential pass: it enumerates the root
// prefixes and drops the duplicates, running both on one worker whose
// pool it closes before the search's workers start.
func (s *search) rootPrefixes(ctx context.Context, depth int) ([]node, *violation, error) {
	w := new(worker)
	defer w.pool.Close()
	roots, viol, err := s.enumerateRoots(ctx, w, depth)
	if err != nil || viol != nil || s.exceeded.Load() {
		return nil, viol, err
	}
	roots, err = s.dedupRoots(ctx, w, roots)
	return roots, nil, err
}

// enumerateRoots explores the first rootDepth levels sequentially (in
// canonical order, so violations found here are deterministic) and
// returns the live frontier prefixes to be partitioned across workers.
func (s *search) enumerateRoots(ctx context.Context, w *worker, depth int) ([]node, *violation, error) {
	frontier := []node{{}}
	for level := 0; level < min(rootDepth, depth); level++ {
		var next []node
		for _, nd := range frontier {
			ext, viol, err := s.expand(ctx, w, nd)
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
// budget ran out — roots are never pruned, see dfs).
func (s *search) expand(ctx context.Context, w *worker, nd node) ([]node, *violation, error) {
	out, v, err := s.visit(ctx.Err, w, nd.script, false)
	if out == nil || v != nil {
		return nil, v, err
	}
	w.r.Close()
	live := appendLive(nil, out)
	if len(live) == 0 {
		s.completions.Add(1)
		return nil, nil, nil
	}
	var ext []node
	for i := 0; ; i++ {
		act, ok := s.extension(live, nd.crashes, i)
		if !ok {
			return ext, nil, nil
		}
		script := append(slices.Clip(nd.script), act)
		ext = append(ext, node{script: script, crashes: nd.crashes + crashCost(act)})
	}
}

// visit counts one search node, executes its prefix on w's runner and
// checks it. With cont set the execution continues w's run — paused at
// script minus its last action — by that action; otherwise it starts
// fresh. It returns a nil outcome when the node is not executed: with
// stop's error when stop reports one (the context died, or the root
// became obsolete), with none when the node budget is exhausted. A node
// the budget refuses is not counted. With a violation the runner is
// already closed; otherwise the caller must close it. The outcome is
// the runner's pause view.
func (s *search) visit(stop func() error, w *worker, script []sim.Action, cont bool) (*sim.Outcome, *violation, error) {
	if err := stop(); err != nil {
		return nil, nil, err
	}
	if s.nodes.Add(1) > int64(s.opts.NodeBudget) {
		s.nodes.Add(-1)
		s.exceeded.Store(true)
		return nil, nil, nil
	}
	s.observeDepth(len(script))

	var (
		out *sim.Outcome
		err error
	)
	if cont {
		out, err = w.r.Extend(script[len(script)-1])
	} else {
		out, err = s.fresh(w, script)
	}
	v := s.violation(w, out, err)
	if v != nil {
		// A violation ends the branch, and the checker may reject a
		// prefix while processes are still parked.
		w.r.Close()
	}
	return out, v, nil
}

// extension returns the i-th one-action continuation of a node whose
// undecided processes are live, having used crashes crash events, and
// false past the last. The canonical order is steps of every live
// process first, then crash placements while budget remains. Exploring
// all step extensions before any crash extension biases the first
// violation found toward fewer crashes — the implicit crash-budget
// deepening companion to the explicit depth deepening.
func (s *search) extension(live []int, crashes, i int) (sim.Action, bool) {
	k := len(live)
	switch {
	case i < k:
		return sim.Step(live[i]), true
	case crashes >= s.opts.CrashBudget:
		return sim.Action{}, false
	case s.tgt.Model == sim.Simultaneous:
		return sim.CrashAll(), i == k
	case i < 2*k:
		return sim.Crash(live[i-k]), true
	}
	return sim.Action{}, false
}

// crashCost is the crash budget an action uses.
func crashCost(act sim.Action) int {
	if act.Kind == sim.ActStep {
		return 0
	}
	return 1
}

// appendLive appends the processes out has not seen decide.
func appendLive(live []int, out *sim.Outcome) []int {
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
func (s *search) dedupRoots(ctx context.Context, w *worker, roots []node) ([]node, error) {
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
		o, err := s.fresh(w, nd.script)
		if err != nil {
			// A violating root must survive to be (re)discovered and
			// reported by dfs in canonical order.
			out = append(out, nd)
			continue
		}
		key := rootKey{fp: s.fingerprint(o, w.m, nd.crashes), crashes: nd.crashes}
		w.r.Close()
		if seen[key] {
			s.pruned.Add(1)
			continue
		}
		seen[key] = true
		out = append(out, nd)
	}
	return out, nil
}

// searchRoots fans the root subtrees out over the worker pool as the
// items of an ordered.Run: workers claim roots in canonical order, and
// the lowest root whose subtree violates wins. A later root's dfs polls
// the run at every node and abandons its subtree once a lower root has
// violated, while earlier subtrees run to completion because they could
// still yield the canonical (first-in-order) violation. So the reported
// violation is independent of worker count and scheduling.
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
	// root leaves it exactly once: when its subtree search returns, or in
	// the post-wait sweep for roots no worker claimed (past a lower root's
	// violation, or left when the node budget tripped or the context
	// died). No blanket reset hides an accounting miss, so a nonzero final
	// frontier is a real leak.
	s.frontier.Store(int64(len(roots)))
	run := ordered.New[*violation](ctx)
	advance := func(i int) bool { return i < len(roots) }
	fanOut(min(s.opts.Workers, len(roots)), func(w *worker) {
		for {
			i, ok := run.Claim(advance)
			if !ok {
				return
			}
			stop := func() error {
				if run.Obsolete(i) {
					return errObsolete
				}
				return nil
			}
			// The root's subtree builds every script in place on one
			// stack, each child's action over its previous sibling's.
			root := roots[i]
			root.script = append(make([]sim.Action, 0, depth+1), root.script...)
			if w.visited == nil {
				w.visited = map[Fingerprint]uint64{}
			}
			clear(w.visited)
			// dfs fails only when stop fires: the root became obsolete,
			// which is not a failure, or the context died, which Result
			// reports.
			v, _ := s.dfs(stop, w, root, depth, false)
			s.frontier.Add(-1)
			if v != nil {
				run.Finish(i, v, nil)
			}
			if s.exceeded.Load() {
				return
			}
		}
	})
	s.frontier.Add(-int64(len(roots) - run.Claimed()))
	return run.Result()
}

// errObsolete abandons a root subtree that can no longer change the
// round's result.
var errObsolete = errors.New("mc: root obsolete")

// fanOut runs work on the given number of goroutines, each with its own
// worker: a pool of coroutines, whose stacks grow once for the whole
// search, and one target instance. It returns once every goroutine has
// closed its pool.
func fanOut(workers int, work func(w *worker)) {
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := new(worker)
			defer w.pool.Close()
			work(w)
		}()
	}
	wg.Wait()
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
//
// The search does not replay every prefix from scratch. nd's execution
// continues the paused run of its parent by nd's last action when cont
// is set; nd hands its own paused run to its first extension, and a
// depth-bound leaf finishes it with the fair completion. Later siblings
// start fresh on w's runner. This is sound for the same reason pruning
// is: an execution is a pure function of its script, so a continued run
// reaches exactly the configuration and outcome a fresh replay would
// (TestContinuedRunMatchesReplay). Every dfs closes w's runner on
// return: it still runs nd's execution, or a child closed it already,
// and Close is idempotent.
//
// Nothing here allocates per node: a child's script is nd's script
// plus one action, written in place past nd's (the root's stack has room
// for the whole depth, and a later sibling's action overwrites an
// earlier one's once its subtree is done); nd's live processes go on
// w's stack; and the runner's pause view is read before the first child
// acts.
func (s *search) dfs(stop func() error, w *worker, nd node, depth int, cont bool) (*violation, error) {
	out, v, err := s.visit(stop, w, nd.script, cont)
	if out == nil || v != nil {
		return v, err
	}
	defer w.r.Close()
	base := len(w.live)
	w.live = appendLive(w.live, out)
	defer w.popLive(base)
	live := w.live[base:]
	if len(live) == 0 {
		s.completions.Add(1)
		return nil, nil
	}

	remaining := depth - len(nd.script)
	fp := s.fingerprint(out, w.m, nd.crashes)
	// visited holds a bitmask of remaining depths already explored for
	// each configuration (remaining < 64 always: depths are small).
	bit := uint64(1) << uint(remaining)
	if w.visited[fp]&bit != 0 {
		s.pruned.Add(1)
		return nil, nil
	}
	w.visited[fp] |= bit

	if remaining <= 0 {
		s.boundaryHits.Add(1)
		s.completions.Add(1)
		out, err := w.r.Run()
		return s.violation(w, out, err), nil
	}
	cont = true
	for i := 0; ; i++ {
		act, ok := s.extension(live, nd.crashes, i)
		if !ok {
			return nil, nil
		}
		child := node{script: append(nd.script, act), crashes: nd.crashes + crashCost(act)}
		v, err := s.dfs(stop, w, child, depth, cont)
		if err != nil || v != nil {
			return v, err
		}
		if s.exceeded.Load() {
			return nil, nil
		}
		cont = false
	}
}

// popLive drops the live processes dfs pushed above base.
func (w *worker) popLive(base int) { w.live = w.live[:base] }
