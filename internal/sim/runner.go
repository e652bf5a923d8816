package sim

import (
	"errors"
	"fmt"
	"math/rand"
)

// Body is the code of one process: it computes a decision value using the
// shared memory reachable through p. A body must access shared state only
// through p's methods; its Go locals model volatile local memory. After a
// crash the body is invoked again from the beginning (the paper's
// restart-on-recovery assumption), so bodies must be written to tolerate
// re-execution — which is precisely the recoverable-algorithm design
// problem this repository studies.
type Body func(p *Proc) Value

// crashSignal is the private panic sentinel used to abort a run.
type crashSignal struct{}

// stopSignal aborts a run because the whole execution is being torn down
// (step budget exceeded); distinct from a crash so it is not retried.
type stopSignal struct{}

// ErrStepBudget is returned by Run when the execution exceeds
// Config.MaxSteps, which for the wait-free algorithms in this repository
// indicates a bug (a livelock or an unfair script).
var ErrStepBudget = errors.New("sim: step budget exhausted before all processes decided")

// ErrRunBudget is returned when a single run of some body exceeds
// Config.MaxStepsPerRun: recoverable wait-freedom demands every run
// decides (or crashes) within a bounded number of its own steps.
var ErrRunBudget = errors.New("sim: a single run exceeded its step budget (recoverable wait-freedom violation?)")

// ErrScript wraps every script-validation failure (unknown process,
// scheduling a decided process, a crash kind that is illegal under the
// configured failure model). Callers that perturb schedules mechanically
// — such as the model checker's counterexample minimizer — use it to
// tell "this candidate script is inadmissible" apart from a genuine
// execution failure.
var ErrScript = errors.New("sim: invalid script")

// FailureModel selects which crash events the adversary may inject.
type FailureModel int

const (
	// Independent lets each process crash and recover individually (the
	// paper's main model, introduced for recoverable mutual exclusion).
	Independent FailureModel = iota + 1
	// Simultaneous crashes all processes together (the system-wide
	// failures model of Section 2).
	Simultaneous
)

// String implements fmt.Stringer.
func (m FailureModel) String() string {
	switch m {
	case Independent:
		return "independent"
	case Simultaneous:
		return "simultaneous"
	default:
		return fmt.Sprintf("FailureModel(%d)", int(m))
	}
}

// Config parameterizes an execution.
type Config struct {
	// Seed drives the random scheduler and crash injection.
	Seed int64
	// Model selects the failure model; default Independent.
	Model FailureModel
	// CrashProb is the per-step probability that the adversary crashes
	// the chosen process (Independent) or everyone (Simultaneous)
	// instead of granting the step, while crash budget remains.
	CrashProb float64
	// MaxCrashes bounds the total number of crash events injected by the
	// random adversary (scripted crashes are not counted against it).
	MaxCrashes int
	// Script, when non-empty, is executed before random scheduling
	// begins: an exact adversarial prefix. Scripted actions referring to
	// processes that already decided are rejected as script bugs.
	Script []Action
	// MaxSteps bounds the total number of scheduling events; default
	// 1_000_000.
	MaxSteps int
	// MaxStepsPerRun bounds the steps of any single run of any body;
	// default 100_000. Exceeding it fails the execution with ErrRunBudget.
	MaxStepsPerRun int
	// HaltAtScriptEnd stops the execution (without error) once the
	// script is exhausted instead of continuing with random scheduling.
	// The model checker (package mc) uses it to enumerate schedule prefixes;
	// undecided processes simply have Decided[i] == false in the outcome.
	HaltAtScriptEnd bool
	// FairCompletion switches post-script scheduling from the seeded
	// random scheduler to a deterministic round-robin over the live
	// undecided processes, with no crash injection. The model checker
	// uses it to extend every explored prefix into a full execution that
	// is a pure function of the script — so a recorded schedule replays
	// byte-identically. Ignored when HaltAtScriptEnd is set.
	FairCompletion bool
	// Source, when non-nil, replaces the Seed-derived RNG driving random
	// scheduling and crash injection. It lets callers inject any
	// deterministic source; the default remains rand.NewSource(Seed), so
	// the runner never touches math/rand's global state either way.
	Source rand.Source
	// DecideRequiresStep inserts one extra scheduling point between a
	// body's return and the recording of its decision, so the adversary
	// can crash a process AFTER its last shared-memory access but BEFORE
	// it outputs — the window that breaks non-recoverable algorithms
	// like test&set consensus (their lost responses cannot be
	// reconstructed). Off by default to keep scripted step counts
	// simple; the model checker always enables it, making its bounded
	// exhaustive adversary strictly stronger.
	DecideRequiresStep bool
}

// ActionKind discriminates scripted scheduler actions.
type ActionKind int

const (
	// ActStep grants one shared-memory step to Proc.
	ActStep ActionKind = iota + 1
	// ActCrash crashes Proc (Independent model).
	ActCrash
	// ActCrashAll crashes every live process (Simultaneous model, but
	// also usable under Independent as n individual crashes).
	ActCrashAll
)

// Action is one scripted scheduler decision.
type Action struct {
	Kind ActionKind
	Proc int
}

// Step returns a scripted step grant for process p.
func Step(p int) Action { return Action{Kind: ActStep, Proc: p} }

// Crash returns a scripted crash of process p.
func Crash(p int) Action { return Action{Kind: ActCrash, Proc: p} }

// CrashAll returns a scripted simultaneous crash.
func CrashAll() Action { return Action{Kind: ActCrashAll} }

// Outcome summarizes a finished execution.
type Outcome struct {
	// Decisions holds each process's output; Decided reports whether the
	// process produced one (with a finite crash budget and fair
	// scheduling every process decides).
	Decisions []Value
	Decided   []bool
	// Crashes counts the crash events delivered to each process.
	Crashes []int
	// Runs counts how many runs (1 + crashes while undecided) each
	// process executed.
	Runs []int
	// Steps is the total number of shared-memory steps granted.
	Steps int
	// Trace is the full event log (nil unless Config recording enabled
	// via Runner.RecordTrace).
	Trace []TraceEvent
	// Schedule is the exact sequence of scheduler actions executed —
	// scripted, random and fair-completion alike (nil unless enabled via
	// Runner.RecordSchedule). Re-running the same bodies with
	// Script: Schedule and HaltAtScriptEnd reproduces the execution
	// event-for-event, which is what makes model-checker counterexamples
	// replayable.
	Schedule []Action
	// EventHashes and ClockHashes are per-process rolling digests of each
	// process's events since its last crash, maintained incrementally
	// during the run (nil unless enabled via Runner.RecordDigests).
	// EventHashes fold what the process observed (event kind, cell,
	// values); ClockHashes additionally fold each event's global position
	// in the execution, for bodies whose local state depends on
	// Proc.Now. Together with Memory.Digest they give the model checker
	// an O(1) configuration fingerprint in place of re-hashing the trace.
	// Digests are process-local session identities (interned ids) — never
	// persist them.
	EventHashes []uint64
	ClockHashes []uint64
}

// procState tracks the scheduler's view of one process.
type procState struct {
	proc    *Proc
	body    Body
	parked  bool
	decided bool
}

// Runner executes a set of bodies over a shared memory under a schedule.
type Runner struct {
	mem *Memory
	cfg Config
	// rng is built lazily on the first random scheduling decision:
	// seeding a rand.Source costs microseconds, which dominates fully
	// scripted executions (the model checker replays one per search
	// node) that never draw from it. Laziness is unobservable — the
	// seed comes from cfg either way, and draws happen in the same
	// order.
	rng    *rand.Rand
	procs  []*procState
	events chan procEvent

	trace          []TraceEvent
	recordTrace    bool
	schedule       []Action
	recordSchedule bool
	recordDigest   bool
	evHash         []uint64 // rolling per-proc event digests (since last crash)
	ckHash         []uint64 // position-mixed variant for clock-sensitive bodies
	eventPos       int      // global event counter, aligned with trace indices

	stepCount   int
	crashBudget int
	rrNext      int   // round-robin cursor for FairCompletion
	failure     error // sticky ErrRunBudget etc.
}

type procEventKind int

const (
	evParked procEventKind = iota + 1
	evDone
)

type procEvent struct {
	proc int
	kind procEventKind
	out  Value
}

// NewRunner prepares an execution of the given bodies (one per process)
// over mem. The runner owns mem for the duration of Run.
func NewRunner(mem *Memory, bodies []Body, cfg Config) *Runner {
	if cfg.Model == 0 {
		cfg.Model = Independent
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1_000_000
	}
	if cfg.MaxStepsPerRun == 0 {
		cfg.MaxStepsPerRun = 100_000
	}
	r := &Runner{
		mem:         mem,
		cfg:         cfg,
		events:      make(chan procEvent),
		crashBudget: cfg.MaxCrashes,
	}
	for i, body := range bodies {
		p := &Proc{id: i, runner: r, grant: make(chan grantMsg)}
		r.procs = append(r.procs, &procState{proc: p, body: body})
	}
	return r
}

// rand returns the scheduling RNG, constructing it on first use.
func (r *Runner) rand() *rand.Rand {
	if r.rng == nil {
		src := r.cfg.Source
		if src == nil {
			src = rand.NewSource(r.cfg.Seed)
		}
		r.rng = rand.New(src)
	}
	return r.rng
}

// RecordTrace enables trace capture (off by default to keep stress tests
// allocation-light).
func (r *Runner) RecordTrace() { r.recordTrace = true }

// RecordSchedule enables capture of the executed scheduler actions into
// Outcome.Schedule (off by default, for the same reason as RecordTrace).
func (r *Runner) RecordSchedule() { r.recordSchedule = true }

// RecordDigests enables incremental per-process event digests
// (Outcome.EventHashes / ClockHashes). Unlike RecordTrace it allocates
// nothing per event — each event folds into two uint64s — so the model
// checker keeps it on for every explored prefix. Call before Run.
func (r *Runner) RecordDigests() {
	r.recordDigest = true
	if r.evHash == nil {
		r.evHash = make([]uint64, len(r.procs))
		r.ckHash = make([]uint64, len(r.procs))
	}
}

// Run executes until every process decides, the script and budgets are
// exhausted, or an invariant fails.
func (r *Runner) Run() (*Outcome, error) {
	live := 0
	for _, ps := range r.procs {
		go r.procLoop(ps)
		live++
	}
	outstanding := live // every process will report in without a grant

	out := &Outcome{
		Decisions: make([]Value, len(r.procs)),
		Decided:   make([]bool, len(r.procs)),
		Crashes:   make([]int, len(r.procs)),
		Runs:      make([]int, len(r.procs)),
	}

	finish := func(err error) (*Outcome, error) {
		// Tear down parked processes so no goroutine leaks.
		for _, ps := range r.procs {
			if ps.parked {
				ps.proc.grant <- grantMsg{stop: true}
				<-r.events // the stop acknowledgement (evDone)
			}
		}
		for i, ps := range r.procs {
			out.Crashes[i] = ps.proc.crashes
			out.Runs[i] = ps.proc.runs
		}
		out.Steps = r.stepCount
		out.Trace = r.trace
		out.Schedule = r.schedule
		if r.recordDigest {
			out.EventHashes = r.evHash
			out.ClockHashes = r.ckHash
		}
		if err == nil {
			err = r.failure
		}
		return out, err
	}

	scriptPos := 0
	for {
		for outstanding > 0 {
			ev := <-r.events
			outstanding--
			ps := r.procs[ev.proc]
			switch ev.kind {
			case evParked:
				ps.parked = true
			case evDone:
				ps.decided = true
				out.Decided[ev.proc] = true
				out.Decisions[ev.proc] = ev.out
				live--
				r.note(TraceDecide, ev.proc, "", ev.out, "")
			}
		}
		if r.failure != nil {
			return finish(nil)
		}
		if live == 0 {
			return finish(nil)
		}
		if r.stepCount >= r.cfg.MaxSteps {
			return finish(ErrStepBudget)
		}

		var act Action
		if scriptPos < len(r.cfg.Script) {
			act = r.cfg.Script[scriptPos]
			scriptPos++
			if err := r.validateAction(act); err != nil {
				return finish(err)
			}
		} else if r.cfg.HaltAtScriptEnd {
			return finish(nil)
		} else if r.cfg.FairCompletion {
			act = r.fairAction()
		} else {
			act = r.randomAction()
		}

		if r.recordSchedule {
			r.schedule = append(r.schedule, act)
		}
		switch act.Kind {
		case ActStep:
			r.stepCount++
			r.grant(act.Proc, false)
			outstanding = 1
		case ActCrash:
			r.grant(act.Proc, true)
			outstanding = 1
		case ActCrashAll:
			for id, ps := range r.procs {
				if ps.parked && !ps.decided {
					r.grant(id, true)
					// Wait for this process to re-park (or decide)
					// before crashing the next one, so the crash is
					// atomic with respect to steps.
					ev := <-r.events
					ps2 := r.procs[ev.proc]
					switch ev.kind {
					case evParked:
						ps2.parked = true
					case evDone:
						ps2.decided = true
						out.Decided[ev.proc] = true
						out.Decisions[ev.proc] = ev.out
						live--
					}
				}
			}
			outstanding = 0
		}
	}
}

func (r *Runner) validateAction(act Action) error {
	switch act.Kind {
	case ActStep, ActCrash:
		if act.Proc < 0 || act.Proc >= len(r.procs) {
			return fmt.Errorf("%w: script refers to unknown process %d", ErrScript, act.Proc)
		}
		ps := r.procs[act.Proc]
		if ps.decided {
			return fmt.Errorf("%w: script schedules process %d after it decided", ErrScript, act.Proc)
		}
		if act.Kind == ActCrash && r.cfg.Model == Simultaneous {
			return fmt.Errorf("%w: individual crash scripted under the simultaneous model", ErrScript)
		}
	case ActCrashAll:
		// always valid
	default:
		return fmt.Errorf("%w: unknown script action kind %d", ErrScript, act.Kind)
	}
	return nil
}

// fairAction implements Config.FairCompletion: a deterministic
// round-robin over the live undecided processes, never crashing. All
// undecided processes are parked when the scheduler picks an action, so
// the cursor scan below always finds one (Run guarantees live > 0).
func (r *Runner) fairAction() Action {
	n := len(r.procs)
	for i := 0; i < n; i++ {
		id := (r.rrNext + i) % n
		ps := r.procs[id]
		if ps.parked && !ps.decided {
			r.rrNext = id + 1
			return Action{Kind: ActStep, Proc: id}
		}
	}
	panic("sim: fairAction called with no live process")
}

// randomAction picks the next scheduling decision from the seeded RNG:
// a uniformly random live process, crashed with probability CrashProb
// while budget remains.
func (r *Runner) randomAction() Action {
	var liveIDs []int
	for id, ps := range r.procs {
		if ps.parked && !ps.decided {
			liveIDs = append(liveIDs, id)
		}
	}
	id := liveIDs[r.rand().Intn(len(liveIDs))]
	if r.crashBudget > 0 && r.cfg.CrashProb > 0 && r.rand().Float64() < r.cfg.CrashProb {
		r.crashBudget--
		if r.cfg.Model == Simultaneous {
			return Action{Kind: ActCrashAll}
		}
		return Action{Kind: ActCrash, Proc: id}
	}
	return Action{Kind: ActStep, Proc: id}
}

func (r *Runner) grant(id int, crash bool) {
	ps := r.procs[id]
	ps.parked = false
	if crash {
		ps.proc.crashes++
		r.note(TraceCrash, id, "", "", "")
	}
	ps.proc.grant <- grantMsg{crash: crash}
}

// procLoop runs one process: body attempts separated by crash recoveries.
func (r *Runner) procLoop(ps *procState) {
	p := ps.proc
	for {
		p.runs++
		p.runSteps = 0
		out, status := p.attempt(ps.body)
		if status == attemptDecided && r.cfg.DecideRequiresStep {
			status = p.commit()
		}
		switch status {
		case attemptDecided:
			r.events <- procEvent{proc: p.id, kind: evDone, out: out}
			return
		case attemptCrashed:
			continue // restart from the beginning: locals are gone
		case attemptStopped:
			r.events <- procEvent{proc: p.id, kind: evDone, out: None}
			return
		}
	}
}
