// Package mc is a bounded, parallel model checker for the recoverable
// consensus protocols in this repository. Where package rc's tests replay
// hand-picked schedules, mc systematically enumerates EVERY interleaving
// of process steps and EVERY placement of crash/recovery events — under
// both of the paper's failure models — up to a schedule depth and crash
// budget, and checks a safety predicate on every resulting execution.
//
// The bounds mirror the paper's adversary definitions ("When Is
// Recoverable Consensus Harder Than Consensus?", PODC 2022, §2):
//
//   - Options.CrashBudget bounds the number of crash events the adversary
//     may inject. Under sim.Independent each event crashes one process
//     (the paper's main model); under sim.Simultaneous each event crashes
//     all live processes at once (the system-wide failures model of
//     Theorem 1). A budget of c therefore explores exactly the
//     c-crash-bounded adversaries of the respective model.
//   - Options.MaxDepth bounds the length of the adversarially chosen
//     schedule prefix. Every prefix at the bound is extended by a
//     deterministic, crash-free round-robin "fair completion"
//     (sim.Config.FairCompletion), so every explored prefix contributes a
//     full execution — the recoverable wait-freedom assumption (every run
//     decides absent further crashes) makes the completion finite.
//
// Guarantee: a Safe result with Exhaustive set means no schedule of
// length ≤ MaxDepth with ≤ CrashBudget crashes (each leaf extended by one
// fair completion) violates the target's checker, up to configuration
// equivalence — a prefix that reaches a previously explored configuration
// (identical non-volatile heap, identical per-process histories since
// each process's last crash, identical decisions and crash usage) at the
// SAME remaining depth is pruned, because the earlier visit's subtree —
// including every depth-bound leaf's fair completion — generates exactly
// the execution set the pruned subtree would. Complete additionally
// means the depth bound was never hit, i.e. the WHOLE schedule space
// within the crash budget was covered.
//
// Determinism: the verdict (Safe), Exhaustive, Complete, the minimized
// counterexample schedule and its violation text depend only on the
// target and the bounds, never on Options.Workers or core count — as long
// as the search stays within Options.NodeBudget. The parallel root search
// and the swarm fallback below both run on an ordered.Run, the same
// lowest-index-wins runner as the engine's witness searches: workers
// claim items (root subtrees, random schedules) in canonical order, and
// the first violating item in that order wins. Stats.Nodes and
// Stats.Pruned are deterministic only at Workers: 1 or for safe,
// exhaustive runs: on a violating target the parallel root search stops
// other workers at a point that depends on scheduling, so how much of the
// space was visited before the stop varies from run to run.
//
// When the exhaustive frontier exceeds Options.NodeBudget, the checker
// degrades gracefully into deterministic "swarm" fuzzing: a fixed,
// seed-derived fleet of randomized crash schedules is executed across the
// worker pool instead. Swarm results never claim exhaustiveness — the
// Result says which mode produced it.
//
// Violations come back as a minimal, replayable counterexample: the full
// recorded schedule is shrunk by greedy action deletion until 1-minimal,
// then re-executed (Replay) to capture the violating trace.
package mc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"rcons/internal/obs"
	"rcons/internal/sim"
)

// Checker validates one finished (or prefix-halted) execution. It
// receives the run's memory as well as its outcome, so construction-
// level invariants (e.g. universal.VerifyList) can be checked alongside
// outcome-level ones.
type Checker func(inputs []sim.Value, m *sim.Memory, out *sim.Outcome) error

// OutcomeCheck adapts an outcome-only predicate (such as rc.CheckOutcome)
// to the Checker signature.
func OutcomeCheck(check func(inputs []sim.Value, out *sim.Outcome) error) Checker {
	return func(inputs []sim.Value, _ *sim.Memory, out *sim.Outcome) error {
		return check(inputs, out)
	}
}

// Target is a system under check: an instance factory (the checker
// starts executions from its instances and replays prefixes on them, so
// every instance must behave identically), the failure model the
// adversary plays, and the safety predicate.
type Target struct {
	// Name identifies the target in reports and API responses.
	Name string
	// Model selects the failure model; zero means sim.Independent.
	Model sim.FailureModel
	// Factory returns an equivalent fresh instance on every call: a
	// memory, one body per process and the inputs. The search calls it
	// once per worker goroutine (and once per root pass), marks the
	// memory (sim.Memory.Mark) and runs every later execution of that
	// worker on the same instance, reset in place (sim.Memory.Reset)
	// with the same bodies and inputs. So bodies must hold no state
	// across invocations: state that outlives a run belongs in the
	// memory, as the model's non-volatile memory does, and a body's Go
	// locals are its volatile memory. Calls may run concurrently.
	Factory func() (*sim.Memory, []sim.Body, []sim.Value)
	// Check is the safety predicate; it must not be nil.
	Check Checker
	// ClockSensitive must be set when bodies observe the global step
	// counter (sim.Proc.Now): a process's local state then depends on
	// when (in global steps) it observed events, not just on what it
	// observed, so configuration fingerprints must carry per-event
	// global positions — which defeats most pruning but keeps it sound.
	ClockSensitive bool
}

// Options bounds a Check run. The zero value of any field selects the
// documented default.
type Options struct {
	// MaxDepth bounds the adversarial schedule prefix length. Default 8.
	MaxDepth int
	// MinDepth is where iterative deepening starts. Default
	// min(4, MaxDepth). Deepening re-explores shallow rounds, but finds
	// shallow counterexamples first and closes small systems early.
	MinDepth int
	// CrashBudget bounds the number of crash events (see the package
	// comment for the model correspondence). Negative means the default
	// of 1; zero genuinely means "no crashes".
	CrashBudget int
	// NodeBudget caps the number of prefixes the exhaustive search may
	// execute before falling back to swarm mode. Default 400_000.
	NodeBudget int
	// Workers is the parallel search width; ≤ 0 means GOMAXPROCS.
	Workers int
	// SwarmSchedules is the number of randomized schedules the swarm
	// fallback executes. Default 2048.
	SwarmSchedules int
	// SwarmSeed offsets the deterministic swarm seed sequence.
	SwarmSeed int64
	// SwarmCrashProb is the per-step crash probability in swarm mode.
	// Default 0.25.
	SwarmCrashProb float64
	// MaxSteps caps any single execution (guards accidental livelock in
	// fair completions). Default 20_000.
	MaxSteps int
	// Progress, when non-nil, receives periodic search-progress samples
	// (nodes explored, rate, current depth, frontier) every
	// ProgressInterval, plus one final flush when the run ends. The
	// publisher samples lock-free counters off the search's hot path, so
	// a nil sink costs nothing and verdicts are identical either way.
	Progress obs.Sink
	// ProgressInterval is the progress sampling period; 0 means 1s.
	ProgressInterval time.Duration

	// fingerprintOracle, when set, replaces the incremental
	// configuration fingerprint and makes every search run record its
	// full event trace for it. Only this package's tests set it, to drive
	// the search with the textual reference pipeline they keep as an
	// oracle.
	fingerprintOracle func(tgt Target, out *sim.Outcome, m *sim.Memory, crashesUsed int) Fingerprint
}

func (o Options) filled() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.MinDepth <= 0 {
		o.MinDepth = 4
	}
	if o.MinDepth > o.MaxDepth {
		o.MinDepth = o.MaxDepth
	}
	if o.CrashBudget < 0 {
		o.CrashBudget = 1
	}
	if o.NodeBudget <= 0 {
		o.NodeBudget = 400_000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SwarmSchedules <= 0 {
		o.SwarmSchedules = 2048
	}
	if o.SwarmCrashProb <= 0 {
		o.SwarmCrashProb = 0.25
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 20_000
	}
	return o
}

// Stats summarizes the search effort. The json tags define the wire
// form rcserve's /v1/mc exposes (lowercase, like every other API field).
type Stats struct {
	// Nodes is the number of schedule prefixes executed exhaustively.
	Nodes int `json:"nodes"`
	// Pruned counts prefixes skipped by configuration-fingerprint
	// pruning.
	Pruned int `json:"pruned"`
	// Replays is the number of executions the exhaustive search started
	// from the beginning, root-deduplication probes included: fresh
	// executions, not Factory calls (each worker resets one instance
	// for all of its executions). The other nodes continued their
	// parent's paused execution. Like
	// Nodes and Pruned it is deterministic for safe, exhaustive runs at
	// any worker count. Swarm executions are counted by SwarmRuns.
	Replays int `json:"replays"`
	// Completions is the number of full executions checked.
	Completions int `json:"completions"`
	// BoundaryHits counts leaves that hit the depth bound with live
	// processes (zero at the final depth ⇒ the space is Complete).
	BoundaryHits int `json:"boundaryHits"`
	// SwarmRuns is the number of randomized schedules executed by the
	// swarm fallback (zero unless the node budget was exceeded). When
	// the swarm finds a violation it varies with worker count and
	// scheduling, as Nodes does: schedules past the first violating one
	// may already be running when it is found.
	SwarmRuns int `json:"swarmRuns"`
	// Rounds is the number of iterative-deepening rounds run.
	Rounds int `json:"rounds"`
	// DepthReached is the deepest prefix length explored.
	DepthReached int `json:"depthReached"`
}

// Counterexample is a violating execution, minimized and replayable.
type Counterexample struct {
	// Schedule is the 1-minimal action sequence: replaying it as a
	// sim script (HaltAtScriptEnd) reproduces the violation, and
	// removing any single action no longer does.
	Schedule []sim.Action
	// Violation is the checker (or simulator) error message.
	Violation string
	// Trace is the full event log of the minimized replay.
	Trace []sim.TraceEvent
}

// String renders the counterexample for CLI and report output.
func (c *Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %s\nviolation: %s\n", sim.FormatScript(c.Schedule), c.Violation)
	if len(c.Trace) > 0 {
		b.WriteString("trace:\n")
		b.WriteString(sim.FormatTrace(c.Trace))
	}
	return b.String()
}

// Result is the verdict of one Check run.
type Result struct {
	// Target, Model, MaxDepth and CrashBudget echo the checked problem.
	Target      string
	Model       sim.FailureModel
	MaxDepth    int
	CrashBudget int
	// Safe reports that no violation was found.
	Safe bool
	// Exhaustive reports the bounded schedule space was fully
	// enumerated; false means the node budget forced swarm fallback, so
	// Safe is only a fuzzing verdict.
	Exhaustive bool
	// Complete reports the search closed without ever hitting the depth
	// bound: the verdict covers ALL schedules within the crash budget,
	// not just those up to MaxDepth.
	Complete bool
	// CE is the minimal counterexample; nil when Safe.
	CE *Counterexample
	// Stats summarizes the effort.
	Stats Stats
}

// Check model-checks tgt under opts. The context cancels the search (a
// cancellation error is returned); every other outcome — safe, violation
// found, swarm fallback — is reported in the Result.
func Check(ctx context.Context, tgt Target, opts Options) (*Result, error) {
	if tgt.Factory == nil || tgt.Check == nil {
		return nil, errors.New("mc: Target.Factory and Target.Check must be set")
	}
	ctx, span := obs.StartSpan(ctx, "mc.check")
	span.SetAttr("target", tgt.Name)
	defer span.End()
	opts = opts.filled()
	model := tgt.Model
	if model == 0 {
		model = sim.Independent
	}
	tgt.Model = model

	res := &Result{
		Target:      tgt.Name,
		Model:       model,
		MaxDepth:    opts.MaxDepth,
		CrashBudget: opts.CrashBudget,
	}
	s := &search{tgt: tgt, opts: opts, start: time.Now()}
	trace := obs.TraceID(ctx)
	stopProgress := obs.PublishEvery(opts.ProgressInterval, opts.Progress, func() obs.Progress {
		return s.progress(trace)
	})
	defer stopProgress()
	logger := obs.LoggerFrom(ctx)

	for depth := opts.MinDepth; ; {
		s.curDepth.Store(int64(depth))
		viol, closed, err := s.round(ctx, depth)
		logger.Debug("mc round done",
			"target", tgt.Name, "depth", depth,
			"nodes", s.nodes.Load(), "pruned", s.pruned.Load(),
			"violation", viol != nil, "closed", closed)
		res.Stats = s.snapshotStats()
		if err != nil {
			return nil, err
		}
		if viol != nil {
			// A violation found in the round where another worker blew
			// the node budget came from a truncated (and therefore
			// scheduling-dependent) search — label it honestly.
			res.Exhaustive = !s.exceeded.Load()
			return s.finishViolation(ctx, res, viol)
		}
		if s.exceeded.Load() {
			// Exhaustive frontier over budget: degrade to swarm fuzzing.
			viol, err := s.swarm(ctx)
			res.Stats = s.snapshotStats()
			if err != nil {
				return nil, err
			}
			res.Exhaustive = false
			if viol != nil {
				return s.finishViolation(ctx, res, viol)
			}
			res.Safe = true
			return res, nil
		}
		if closed {
			// No leaf hit the depth bound: deepening cannot reach
			// anything new, the whole crash-bounded space is covered.
			res.Safe, res.Exhaustive, res.Complete = true, true, true
			return res, nil
		}
		if depth >= opts.MaxDepth {
			res.Safe, res.Exhaustive = true, true
			return res, nil
		}
		depth = min(depth+deepenStep, opts.MaxDepth)
	}
}

// deepenStep is the depth increment between iterative-deepening rounds.
// Branching factors here are ≥ 2, so each round dominates the cost of all
// shallower ones and re-exploration stays cheap.
const deepenStep = 3

// finishViolation minimizes, replays and packages a violation.
func (s *search) finishViolation(ctx context.Context, res *Result, v *violation) (*Result, error) {
	minimal := Minimize(ctx, s.tgt, v.schedule, s.opts.MaxSteps)
	ce := &Counterexample{Schedule: minimal}
	inputs, m, out, err := Replay(s.tgt, minimal, s.opts.MaxSteps)
	switch {
	case err != nil:
		ce.Violation = err.Error()
	default:
		if cerr := s.tgt.Check(inputs, m, out); cerr != nil {
			ce.Violation = cerr.Error()
		} else {
			// Minimize guarantees the minimal schedule still violates;
			// reaching here would be a checker nondeterminism bug.
			ce.Violation = v.err.Error()
		}
	}
	if out != nil {
		ce.Trace = out.Trace
	}
	res.Safe = false
	res.CE = ce
	return res, nil
}
