package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"rcons/internal/intern"
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
	// Replays of recorded schedules use it; undecided processes simply
	// have Decided[i] == false in the outcome. (Runner.Start always stops
	// at the script's end; this field governs Run.)
	HaltAtScriptEnd bool
	// FairCompletion switches post-script scheduling from the seeded
	// random scheduler to a deterministic round-robin over the live
	// undecided processes, with no crash injection. The model checker
	// uses it to extend every depth-bound prefix into a full execution
	// that is a pure function of the script — so a recorded schedule
	// replays byte-identically. Ignored when HaltAtScriptEnd is set.
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

// Outcome summarizes an execution. Run's outcome is a snapshot of the
// finished execution: nothing the runner does later changes it. The
// outcome Start and Extend return at a pause is a view the runner owns
// and refills at every pause: it stays valid until the runner's next
// action (Extend or Run) or Reset, and a caller that needs it longer
// copies what it keeps.
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

// procState tracks the scheduler's view of one process. The process runs
// on a coroutine from the runner's pool: resuming the coroutine runs the
// process until its next scheduling point or until it has decided (with
// the decision in out), and a stop grant unwinds it from a pending
// scheduling point. The process holds its coroutine from the runner's
// start until the execution finishes (Run, an error, or Close), across
// any number of Extend calls in between, and then gives it back to the
// pool.
type procState struct {
	proc    *Proc
	body    Body
	co      *coro
	parked  bool
	decided bool
	out     Value
}

// Runner executes a set of bodies over a shared memory under a schedule.
type Runner struct {
	mem  *Memory
	cfg  Config
	pool *Pool         // lends the process coroutines
	ids  *intern.Cache // the pool's id cache; nil interns through the table
	// rng is built lazily on the first random scheduling decision:
	// seeding a rand.Source costs microseconds, which dominates fully
	// scripted executions (every model-checker node) that never draw
	// from it. Laziness is unobservable — the seed comes from cfg either
	// way, and draws happen in the same order.
	rng   *rand.Rand
	procs []*procState
	live  int // processes that have not decided

	view Outcome // what Start and Extend return; refilled at every pause

	trace          []TraceEvent
	recordTrace    bool
	schedule       []Action
	recordSchedule bool
	recordDigest   bool
	evHash         []uint64 // rolling per-proc event digests (since last crash)
	ckHash         []uint64 // position-mixed variant for clock-sensitive bodies
	eventPos       int      // global event counter, aligned with trace indices

	started     bool // the processes hold coroutines (start ran)
	finished    bool // the coroutines went back to the pool (finish or Close ran)
	scriptPos   int  // next action of cfg.Script to execute
	stepCount   int
	crashBudget int
	rrNext      int   // round-robin cursor for FairCompletion
	failure     error // sticky ErrRunBudget etc.
}

// NewRunner prepares an execution of the given bodies (one per process)
// over mem. The runner owns mem until the execution finishes. Its
// coroutines are its own: they end when the execution finishes, as if
// the runner came from a pool that is already closed.
func NewRunner(mem *Memory, bodies []Body, cfg Config) *Runner {
	return (&Pool{closed: true}).NewRunner(mem, bodies, cfg)
}

// NewRunner prepares an execution as the package-level NewRunner does,
// but its processes run on coroutines from pl, and the runner gives them
// back to pl when the execution finishes or is closed.
func (pl *Pool) NewRunner(mem *Memory, bodies []Body, cfg Config) *Runner {
	if cfg.Model == 0 {
		cfg.Model = Independent
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1_000_000
	}
	if cfg.MaxStepsPerRun == 0 {
		cfg.MaxStepsPerRun = 100_000
	}
	// Extend appends to the script and Reset overwrites it, so the
	// runner keeps a copy of its own.
	cfg.Script = slices.Clone(cfg.Script)
	r := &Runner{
		mem:         mem,
		cfg:         cfg,
		pool:        pl,
		ids:         pl.cache(),
		crashBudget: cfg.MaxCrashes,
	}
	for i, body := range bodies {
		p := &Proc{id: i, runner: r}
		r.procs = append(r.procs, &procState{proc: p, body: body})
	}
	return r
}

// Reset re-arms a finished runner for a new execution of the given
// script, with the same memory, bodies, config and recording switches,
// as Memory.Reset does for the memory. The runner keeps its processes
// and its script, schedule, trace and digest buffers, so executions run
// one after another on one runner allocate nothing once those buffers
// have grown. The memory is not touched: a caller that wants the
// execution to start from the memory's marked contents resets it too.
// An execution after Reset equals one on a runner built anew by
// NewRunner (or the same Pool's NewRunner) with the same arguments and
// script. Reset also accepts a runner that never started; it panics on
// a paused runner, whose execution must first end by Run, Close or an
// error.
func (r *Runner) Reset(script []Action) {
	if r.started && !r.finished {
		panic("sim: Reset of a paused runner")
	}
	r.cfg.Script = append(r.cfg.Script[:0], script...)
	r.rng = nil
	r.trace = r.trace[:0]
	r.schedule = r.schedule[:0]
	clear(r.evHash)
	clear(r.ckHash)
	r.eventPos = 0
	r.started, r.finished = false, false
	r.scriptPos, r.stepCount, r.rrNext = 0, 0, 0
	r.crashBudget = r.cfg.MaxCrashes
	r.failure = nil
	for _, ps := range r.procs {
		*ps.proc = Proc{id: ps.proc.id, runner: r}
		ps.parked, ps.decided, ps.out = false, false, ""
	}
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
// allocation-light). Call before Start or Run.
func (r *Runner) RecordTrace() { r.recordTrace = true }

// RecordSchedule enables capture of the executed scheduler actions into
// Outcome.Schedule (off by default, for the same reason as RecordTrace).
func (r *Runner) RecordSchedule() { r.recordSchedule = true }

// RecordDigests enables incremental per-process event digests
// (Outcome.EventHashes / ClockHashes). Unlike RecordTrace it allocates
// nothing per event — each event folds into two uint64s — so the model
// checker keeps it on for every explored prefix. Call before Start or
// Run.
func (r *Runner) RecordDigests() {
	r.recordDigest = true
	if r.evHash == nil {
		r.evHash = make([]uint64, len(r.procs))
		r.ckHash = make([]uint64, len(r.procs))
	}
}

// Run executes until every process decides, the script and budgets are
// exhausted, or an invariant fails, and then tears the execution down:
// every process is unwound and its coroutine goes back to the pool, so
// no coroutine outlives its pool. On a new runner it starts the
// processes first; on a runner paused by Start or Extend it continues
// from the pause, so the result equals a single Run of the whole
// script. Processes run one at a time, in process order until each
// reaches its first scheduling point and then as granted, so the
// execution is a pure function of the script and seed.
func (r *Runner) Run() (*Outcome, error) {
	if r.finished {
		panic("sim: Run on a finished runner")
	}
	if !r.started {
		r.start()
	}
	return r.finish(r.loop(r.cfg.HaltAtScriptEnd))
}

// Start starts the processes and executes the whole script — whatever
// HaltAtScriptEnd says — then pauses with every undecided process parked
// at a scheduling point. The outcome is the runner's pause view (see
// Outcome): the runner's next action or Reset overwrites it. A paused
// runner is continued by Extend, finished by Run (which applies the
// post-script policy of the Config) or torn down by Close. On an error
// the execution is torn down exactly as Run would, and its outcome — a
// snapshot, as Run's — and error are returned.
func (r *Runner) Start() (*Outcome, error) {
	if r.started {
		panic("sim: Start on a runner that already started")
	}
	r.start()
	return r.pause(r.loop(true))
}

// Extend executes one more action on a paused runner and pauses again.
// The action is validated and executed exactly as if the script had
// ended with it, so the outcome equals a HaltAtScriptEnd run of the
// extended script on a fresh instance; errors tear the execution down
// as in Start. Like Start's, the outcome is the runner's pause view,
// which this call has refilled.
func (r *Runner) Extend(act Action) (*Outcome, error) {
	if !r.started || r.finished {
		panic("sim: Extend on a runner that is not paused")
	}
	r.cfg.Script = append(r.cfg.Script, act)
	return r.pause(r.loop(true))
}

// Close tears down a paused runner, unwinding every parked process and
// giving the coroutines back to the pool. It does nothing on a runner
// that never started or already finished, so it may be deferred
// unconditionally.
func (r *Runner) Close() {
	if r.started && !r.finished {
		r.stop()
	}
}

// start gives every process a coroutine from the pool and runs each, in
// process order, to its first scheduling point or its decision.
func (r *Runner) start() {
	r.started = true
	r.mem.hold(r)
	r.live = len(r.procs)
	for id, ps := range r.procs {
		ps.co = r.pool.get()
		ps.co.ps = ps
		r.resume(id)
	}
}

// loop is the runner's one execution loop, shared by Run, Start and
// Extend. It executes scheduler actions until every process has decided,
// a budget or invariant fails, or — with halt set — the script is
// exhausted. After the script it draws actions from the fair completion
// or the seeded random scheduler.
func (r *Runner) loop(halt bool) error {
	for r.failure == nil && r.live > 0 {
		if r.stepCount >= r.cfg.MaxSteps {
			return ErrStepBudget
		}
		var act Action
		switch {
		case r.scriptPos < len(r.cfg.Script):
			act = r.cfg.Script[r.scriptPos]
			r.scriptPos++
			if err := r.validateAction(act); err != nil {
				return err
			}
		case halt:
			return nil
		case r.cfg.FairCompletion:
			act = r.fairAction()
		default:
			act = r.randomAction()
		}
		r.exec(act)
	}
	return nil
}

// exec executes one validated scheduler action.
func (r *Runner) exec(act Action) {
	if r.recordSchedule {
		r.schedule = append(r.schedule, act)
	}
	switch act.Kind {
	case ActStep:
		r.stepCount++
		r.grant(act.Proc, false)
	case ActCrash:
		r.grant(act.Proc, true)
	case ActCrashAll:
		// Each crashed process recovers to its next scheduling point
		// (or decides) before the next one is crashed, so the crash
		// is atomic with respect to steps.
		for id, ps := range r.procs {
			if ps.parked {
				r.grant(id, true)
			}
		}
	}
}

// pause ends Start and Extend: a failed execution is torn down, a
// healthy one stays parked and reports the refilled pause view.
func (r *Runner) pause(err error) (*Outcome, error) {
	if err != nil || r.failure != nil {
		return r.finish(err)
	}
	v := &r.view
	if v.Decided == nil {
		n := len(r.procs)
		counts := make([]int, 2*n)
		v.Decisions, v.Decided = make([]Value, n), make([]bool, n)
		v.Crashes, v.Runs = counts[:n:n], counts[n:]
	}
	r.fill(v)
	// The digests change only with actions and Reset, which end the
	// view's validity, so it shows the runner's own (nil unless
	// recorded).
	v.EventHashes, v.ClockHashes = r.evHash, r.ckHash
	return v, nil
}

// finish tears the execution down and assembles the outcome.
func (r *Runner) finish(err error) (*Outcome, error) {
	r.stop()
	if err == nil {
		err = r.failure
	}
	return r.outcome(), err
}

// stop unwinds every process still parked at a scheduling point with
// the stop sentinel, which leaves its coroutine idle, and gives every
// coroutine back to the pool.
func (r *Runner) stop() {
	r.finished = true
	for _, ps := range r.procs {
		if ps.parked {
			ps.proc.interrupt = stopSignal{}
			ps.co.next()
		}
		r.pool.put(ps.co)
		ps.co = nil
	}
	r.mem.release(r)
}

// outcome assembles a snapshot of the execution: it shares nothing the
// runner reuses. The per-process slices of one element type share one
// backing array, each cut at its own capacity.
func (r *Runner) outcome() *Outcome {
	n := len(r.procs)
	counts := make([]int, 2*n)
	out := &Outcome{
		Decisions: make([]Value, n),
		Decided:   make([]bool, n),
		Crashes:   counts[:n:n],
		Runs:      counts[n:],
	}
	r.fill(out)
	out.Schedule, out.Trace = slices.Clone(out.Schedule), slices.Clone(out.Trace)
	if r.recordDigest {
		hashes := append(append(make([]uint64, 0, 2*n), r.evHash...), r.ckHash...)
		out.EventHashes, out.ClockHashes = hashes[:n:n], hashes[n:]
	}
	return out
}

// fill writes the execution's state so far into out, whose per-process
// slices hold one element per process: decisions, crash and run counts,
// steps, and the schedule and trace.
func (r *Runner) fill(out *Outcome) {
	for i, ps := range r.procs {
		out.Decided[i] = ps.decided
		out.Decisions[i] = ""
		if ps.decided {
			out.Decisions[i] = ps.out
		}
		out.Crashes[i] = ps.proc.crashes
		out.Runs[i] = ps.proc.runs
	}
	out.Steps = r.stepCount
	out.Trace = cut(r.trace)
	out.Schedule = cut(r.schedule)
}

// cut returns s cut at its length and capacity, so a caller's appends
// never write into the runner's buffer, or nil when it is empty, as it
// is on a new runner.
func cut[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s[:len(s):len(s)]
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
// the cursor scan below always finds one (loop guarantees live > 0).
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
// while budget remains. Every undecided process is parked when the
// scheduler picks an action (see fairAction), so the draw is over the
// r.live undecided processes in process order.
func (r *Runner) randomAction() Action {
	k := r.rand().Intn(r.live)
	id := 0
	for ; r.procs[id].decided || k > 0; id++ {
		if !r.procs[id].decided {
			k--
		}
	}
	if r.crashBudget > 0 && r.cfg.CrashProb > 0 && r.rand().Float64() < r.cfg.CrashProb {
		r.crashBudget--
		if r.cfg.Model == Simultaneous {
			return Action{Kind: ActCrashAll}
		}
		return Action{Kind: ActCrash, Proc: id}
	}
	return Action{Kind: ActStep, Proc: id}
}

// grant delivers a step (or a crash) to parked process id and runs it
// until its next scheduling point or its decision.
func (r *Runner) grant(id int, crash bool) {
	ps := r.procs[id]
	ps.parked = false
	ps.proc.interrupt = nil
	if crash {
		ps.proc.crashes++
		ps.proc.interrupt = crashSignal{}
		r.note(id, event{kind: TraceCrash})
	}
	r.resume(id)
}

// resume runs process id until it parks at a scheduling point or decides.
func (r *Runner) resume(id int) {
	ps := r.procs[id]
	if parked, _ := ps.co.next(); parked {
		ps.parked = true
		return
	}
	ps.decided = true
	r.live--
	r.note(id, event{kind: TraceDecide, d1: ps.out})
}

// procLoop is one process's life on its coroutine: body attempts
// separated by crash recoveries, yielding true at every scheduling
// point. It returns once the body decides, or is stopped (which reports
// the decision None).
func (ps *procState) procLoop(yield func(bool) bool) {
	p := ps.proc
	p.yield = yield
	for {
		p.runs++
		p.runSteps = 0
		out, status := p.attempt(ps.body)
		if status == attemptDecided && p.runner.cfg.DecideRequiresStep {
			status = p.commit()
		}
		switch status {
		case attemptDecided:
			ps.out = out
			return
		case attemptStopped:
			ps.out = None
			return
		}
		// attemptCrashed: restart from the beginning, locals are gone.
	}
}
