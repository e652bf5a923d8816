package sim

import (
	"fmt"

	"rcons/internal/spec"
)

// attemptStatus reports how one run of a body ended.
type attemptStatus int

const (
	attemptDecided attemptStatus = iota + 1
	attemptCrashed
	attemptStopped
)

// Proc is a process's handle to the simulated system. All shared-memory
// accessors are scheduling points; everything between two scheduling
// points executes atomically with respect to other processes.
type Proc struct {
	id     int
	runner *Runner
	yield  func(bool) bool // parks the coroutine at a scheduling point
	// interrupt is what the pending grant raises at the scheduling
	// point: nil for a step, crashSignal{} for a crash, stopSignal{}
	// when the execution is being torn down.
	interrupt any

	runs     int // 1 + number of crashes while undecided
	crashes  int
	runSteps int // steps taken by the current run
}

// ID returns the process index (0-based).
func (p *Proc) ID() int { return p.id }

// RunNumber returns which run of the body is executing (1 for the first
// attempt, incremented after every crash). Algorithms must not base
// decisions on it — local memory is volatile in the model — but tests and
// diagnostics may.
func (p *Proc) RunNumber() int { return p.runs }

// Now returns the total number of shared-memory steps granted so far in
// the execution — a logical clock usable for history timestamps. It is
// not a scheduling point.
func (p *Proc) Now() int { return p.runner.stepCount }

// attempt executes one run of body, converting the crash sentinel into a
// status. Any other panic is a bug in the body (e.g. accessing an unknown
// cell); it is captured as an execution failure so that Run returns an
// error instead of propagating the panic out of the scheduler.
func (p *Proc) attempt(body Body) (out Value, status attemptStatus) {
	defer func() {
		if e := recover(); e != nil {
			switch e.(type) {
			case crashSignal:
				status = attemptCrashed
			case stopSignal:
				status = attemptStopped
			default:
				if p.runner.failure == nil {
					p.runner.failure = fmt.Errorf("sim: process %d panicked: %v", p.id, e)
				}
				status = attemptStopped
			}
		}
	}()
	out = body(p)
	return out, attemptDecided
}

// step yields to the scheduler until it grants a shared-memory step,
// panicking with the crash sentinel when the grant is a crash and with
// the stop sentinel when the execution is being torn down.
func (p *Proc) step() {
	p.runSteps++
	if p.runSteps > p.runner.cfg.MaxStepsPerRun {
		p.runner.failure = ErrRunBudget
		panic(stopSignal{})
	}
	if !p.yield(true) {
		panic(stopSignal{})
	}
	if p.interrupt != nil {
		panic(p.interrupt)
	}
}

// commit takes the extra decide scheduling point enabled by
// Config.DecideRequiresStep, converting its crash/stop panics back into
// statuses for the process coroutine.
func (p *Proc) commit() (st attemptStatus) {
	defer func() {
		if e := recover(); e != nil {
			switch e.(type) {
			case crashSignal:
				st = attemptCrashed
			case stopSignal:
				st = attemptStopped
			default:
				panic(e)
			}
		}
	}()
	p.step()
	return attemptDecided
}

// Read atomically reads a shared register (one step).
func (p *Proc) Read(reg string) Value {
	p.step()
	r := p.runner
	v, cellID, valID := r.mem.read(reg)
	r.note(p.id, event{kind: TraceRead, cell: reg, cellID: cellID, d1: v, d1ID: valID})
	return v
}

// Write atomically writes a shared register (one step).
func (p *Proc) Write(reg string, v Value) {
	p.step()
	r := p.runner
	valID := r.ids.ID(v)
	cellID := r.mem.write(reg, v, valID)
	r.note(p.id, event{kind: TraceWrite, cell: reg, cellID: cellID, d1: v, d1ID: valID})
}

// Apply atomically applies an update operation to a shared object (one
// step) and returns its response.
func (p *Proc) Apply(obj string, op spec.Op) spec.Response {
	p.step()
	r := p.runner
	resp, cellID := r.mem.apply(obj, op, r.ids)
	r.note(p.id, event{kind: TraceApply, cell: obj, cellID: cellID, d1: string(op), d2: string(resp)})
	return resp
}

// ReadObject atomically reads a shared object's entire state (one step) —
// the Read operation of the paper's readable types. Algorithms
// reproducing results about non-readable types must not call it.
func (p *Proc) ReadObject(obj string) spec.State {
	p.step()
	r := p.runner
	s, cellID := r.mem.readObj(obj)
	r.note(p.id, event{kind: TraceReadObj, cell: obj, cellID: cellID, d1: string(s)})
	return s
}

// The allocation helpers below are NOT scheduling points: preparing fresh
// cells models initializing a node in non-volatile memory before any
// pointer to it is published, which no other process can observe. They
// may only be called from a body.

// AllocRegister creates a fresh register with a unique name and the given
// initial value, returning its name.
func (p *Proc) AllocRegister(prefix string, init Value) string {
	name := p.runner.mem.FreshName(prefix)
	p.runner.mem.AddRegister(name, init)
	return name
}

// AllocObject creates a fresh object cell, returning its name.
func (p *Proc) AllocObject(prefix string, t spec.Type, q0 spec.State) string {
	name := p.runner.mem.FreshName(prefix)
	p.runner.mem.AddObject(name, t, q0)
	return name
}

// EnsureRegister creates the named register if it does not exist yet
// (idempotent, for lazily-extended unbounded arrays like D[1..∞] in the
// paper's Figure 4). Returns the name.
func (p *Proc) EnsureRegister(name string, init Value) string {
	p.runner.mem.EnsureRegister(name, init)
	return name
}

// EnsureObject creates the named object if it does not exist yet.
func (p *Proc) EnsureObject(name string, t spec.Type, q0 spec.State) string {
	p.runner.mem.EnsureObject(name, t, q0)
	return name
}
