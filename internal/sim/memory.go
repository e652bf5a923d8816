// Package sim simulates the paper's system model: an asynchronous
// shared-memory system with *non-volatile* shared memory in which
// processes may crash and recover *independently* (or simultaneously),
// losing all local state — including their program counter — and
// restarting their code from the beginning.
//
// Processes are Go closures (Body) whose local variables play the role of
// volatile local memory: on a crash the closure is aborted (via a private
// panic sentinel) and simply invoked again, so locals vanish exactly as
// the model prescribes. All shared state lives in a Memory, which the
// crash machinery never touches — that is the non-volatile heap.
//
// Every process runs as a coroutine of the scheduler, and every
// shared-memory access is a *scheduling point*: the process yields until
// the scheduler grants it a step. At most one process runs at a time —
// preludes before the first scheduling point run in process order — so
// executions are fully deterministic for a fixed seed or script, and
// adversarial schedules from the paper replay exactly. A Pool lets
// executions run one after another reuse those coroutines, and caches
// the interned ids of the values, operations, responses and states its
// runners see.
//
// A memory can be reused the same way. Memory.Mark records its contents
// once it is set up; Memory.Reset returns it to them — marked cells to
// their marked values (objects' update counts to zero), cells allocated
// since dropped, fresh-name counter,
// Digest and Snapshot as at the mark — and panics while an execution
// over the memory is unfinished. An execution on a reset memory is
// indistinguishable from one on a memory built anew, provided the bodies
// keep no state of their own from one invocation to the next: all state
// that survives an execution must live in the Memory, as the model's
// non-volatile memory does.
//
// So can a runner. Runner.Reset re-arms a finished runner for a new
// script with the same memory, bodies, config and recording switches,
// keeping its buffers, and panics while its execution is paused. A
// runner that pauses (Start, Extend) reports a view it owns and refills
// at every pause, valid until its next action or Reset; Run reports a
// snapshot. A caller driving many paused executions through one runner
// thus allocates nothing per pause once the buffers have grown, and
// copies what it keeps of a view.
package sim

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"rcons/internal/intern"
	"rcons/internal/spec"
)

// Value is the content of a shared register and the type of process
// inputs and decisions.
type Value = string

// None is the distinguished "unwritten" register value ⊥.
const None Value = "_"

// regCell is one register: its value plus the interned identities and
// digest contribution kept so writes update Memory.structHash in O(1)
// and events carry the cell's and value's ids without re-interning any
// strings.
type regCell struct {
	val    Value
	nameID uint32
	valID  uint32
	digest uint64
}

// objCell is one object cell; nameID and typeID are interned once at
// allocation. The cell's digest contribution is derived from the
// object's state on demand (see apply) rather than cached, so
// concurrent applies fold commutative XOR deltas and cannot leave a
// stale cached word behind.
type objCell struct {
	o      *spec.Object
	nameID uint32
	typeID uint32
}

// Cell-kind tags keep register and object digests in disjoint families
// even when a register value and an object state intern to the same id.
const (
	regTag uint64 = 0x5245 << 48 // "RE"
	objTag uint64 = 0x4f42 << 48 // "OB"
)

func regDigest(nameID, valID uint32) uint64 {
	return intern.Mix64(regTag ^ uint64(nameID)<<32 ^ uint64(valID))
}

func objDigest(nameID, typeID, stateID uint32) uint64 {
	return intern.MixPair(intern.Mix64(objTag^uint64(nameID)<<32^uint64(typeID)), uint64(stateID))
}

// Memory is the non-volatile shared heap: named atomic registers and
// named atomic objects of arbitrary spec types. It survives all crashes.
//
// The Runner serializes every access made during Run by construction:
// processes are coroutines, and only one runs at a time. Structural
// access (allocation, existence checks) is guarded by an internal
// mutex, because a Memory is also built, read and checked outside Run —
// by protocol checkers, the model checker and tests, possibly from other
// goroutines.
//
// Alongside the cells the memory maintains structHash, an incrementally
// updated structural digest: the XOR of one well-mixed 64-bit word per
// cell (name, kind and current value all interned). XOR makes every
// update O(1) — a write removes the old cell word and adds the new one —
// and makes the digest independent of allocation interleaving, exactly
// like the sorted textual Snapshot it replaces on the model checker's
// hot path.
type Memory struct {
	mu   sync.Mutex
	regs map[string]*regCell
	objs map[string]*objCell

	nextID int // allocation counter for fresh names (non-volatile)

	structHash uint64 // XOR of per-cell digests, maintained on every mutation

	// Sorted name slices are cached between Snapshot/RegisterNames calls
	// and invalidated by allocation (values changing does not reorder
	// names), so steady-state snapshots stop re-sorting and reallocating.
	sortedRegs []string
	sortedObjs []string

	mark  *mark   // what Reset restores; nil until Mark
	owner *Runner // the runner whose execution holds the memory, if any
}

// mark is the memory's contents as Mark recorded them, and the cells
// allocated since, which Reset drops.
type mark struct {
	regs       []regMark
	objs       []objMark
	nextID     int
	structHash uint64
	sortedRegs []string
	sortedObjs []string

	addedRegs []string
	addedObjs []string
}

type regMark struct {
	cell *regCell
	init regCell
}

type objMark struct {
	o  *spec.Object
	q0 spec.State
}

// NewMemory returns an empty non-volatile heap.
func NewMemory() *Memory {
	return &Memory{regs: map[string]*regCell{}, objs: map[string]*objCell{}}
}

func (m *Memory) addRegisterLocked(name string, init Value) {
	nameID, valID := intern.ID(name), intern.ID(init)
	cell := &regCell{val: init, nameID: nameID, valID: valID, digest: regDigest(nameID, valID)}
	m.regs[name] = cell
	m.structHash ^= cell.digest
	m.sortedRegs = nil
	if m.mark != nil {
		m.mark.addedRegs = append(m.mark.addedRegs, name)
	}
}

func (m *Memory) addObjectLocked(name string, t spec.Type, q0 spec.State) {
	nameID := intern.ID(name)
	typeID := intern.ID(t.Name())
	m.objs[name] = &objCell{o: spec.NewObject(t, q0), nameID: nameID, typeID: typeID}
	m.structHash ^= objDigest(nameID, typeID, intern.ID(string(q0)))
	m.sortedObjs = nil
	if m.mark != nil {
		m.mark.addedObjs = append(m.mark.addedObjs, name)
	}
}

// Mark records the memory's current contents as the point Reset returns
// to, replacing any earlier mark. A caller that runs many executions over
// one memory marks it once, right after setting it up, and resets it
// before each execution. Objects' update counts are not recorded: Reset
// restarts them at zero, so a memory must be marked before any of its
// objects is updated for Reset to return it to the marked contents.
func (m *Memory) Mark() {
	m.mu.Lock()
	defer m.mu.Unlock()
	mk := &mark{
		regs:       make([]regMark, 0, len(m.regs)),
		objs:       make([]objMark, 0, len(m.objs)),
		nextID:     m.nextID,
		structHash: m.structHash,
		sortedRegs: m.sortedRegNamesLocked(),
		sortedObjs: m.sortedObjNamesLocked(),
	}
	for _, cell := range m.regs {
		mk.regs = append(mk.regs, regMark{cell: cell, init: *cell})
	}
	for _, cell := range m.objs {
		mk.objs = append(mk.objs, objMark{o: cell.o, q0: cell.o.Read()})
	}
	m.mark = mk
}

// Reset returns the memory to the contents Mark recorded: every marked
// register holds its marked value and every marked object its marked
// state again (through spec.Object.Reset, so update counts restart at
// zero), the cells allocated since the mark are gone, and the fresh-name
// counter, Digest and Snapshot read as they did at the mark. A reset
// memory is indistinguishable, to any execution and any reader, from
// one built anew by the same setup code, provided Mark ran before any
// object was updated.
//
// Reset panics on a memory that was never marked, and on one whose
// execution has started and not finished (a runner paused by Start or
// Extend holds its memory until Run, Close or an error ends it):
// resetting the heap under a paused execution would corrupt it.
func (m *Memory) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	mk := m.mark
	switch {
	case mk == nil:
		panic("sim: Reset of a memory that was never marked")
	case m.owner != nil:
		panic("sim: Reset of a memory whose execution has not finished")
	}
	for _, name := range mk.addedRegs {
		delete(m.regs, name)
	}
	for _, name := range mk.addedObjs {
		delete(m.objs, name)
	}
	mk.addedRegs, mk.addedObjs = mk.addedRegs[:0], mk.addedObjs[:0]
	for _, r := range mk.regs {
		*r.cell = r.init
	}
	for _, o := range mk.objs {
		o.o.Reset(o.q0)
	}
	m.nextID, m.structHash = mk.nextID, mk.structHash
	m.sortedRegs, m.sortedObjs = mk.sortedRegs, mk.sortedObjs
}

// hold and release bracket the execution of r over the memory (from
// Runner.start to Runner.stop), so Reset can refuse to run under it.
func (m *Memory) hold(r *Runner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.owner = r
}

func (m *Memory) release(r *Runner) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owner == r {
		m.owner = nil
	}
}

// AddRegister creates register name with the given initial value. It
// panics if the name is taken: memory layout mistakes are programming
// errors in experiment setup code.
func (m *Memory) AddRegister(name string, init Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.regs[name]; dup {
		panic(fmt.Sprintf("sim: register %q already exists", name))
	}
	m.addRegisterLocked(name, init)
}

// AddObject creates an object cell of type t initialized to q0.
func (m *Memory) AddObject(name string, t spec.Type, q0 spec.State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.objs[name]; dup {
		panic(fmt.Sprintf("sim: object %q already exists", name))
	}
	m.addObjectLocked(name, t, q0)
}

// FreshName mints a unique cell name with the given prefix. The counter
// is non-volatile, so names are unique across crashes.
func (m *Memory) FreshName(prefix string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	return prefix + "#" + strconv.Itoa(m.nextID)
}

// EnsureRegister creates register name with the given initial value if
// it does not exist yet. The check-and-create is atomic, so concurrent
// callers outside Run ensuring the same cell cannot collide.
func (m *Memory) EnsureRegister(name string, init Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.regs[name]; !ok {
		m.addRegisterLocked(name, init)
	}
}

// EnsureObject creates an object cell of type t initialized to q0 if it
// does not exist yet (atomically, like EnsureRegister).
func (m *Memory) EnsureObject(name string, t spec.Type, q0 spec.State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objs[name]; !ok {
		m.addObjectLocked(name, t, q0)
	}
}

// HasRegister reports whether register name exists.
func (m *Memory) HasRegister(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.regs[name]
	return ok
}

// HasObject reports whether object name exists.
func (m *Memory) HasObject(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.objs[name]
	return ok
}

// Object returns the named object for post-execution inspection by tests.
func (m *Memory) Object(name string) *spec.Object {
	m.mu.Lock()
	defer m.mu.Unlock()
	cell, ok := m.objs[name]
	if !ok {
		panic(fmt.Sprintf("sim: unknown object %q", name))
	}
	return cell.o
}

// PeekRegister returns the named register's value for post-execution
// inspection by tests.
func (m *Memory) PeekRegister(name string) Value {
	m.mu.Lock()
	defer m.mu.Unlock()
	cell, ok := m.regs[name]
	if !ok {
		panic(fmt.Sprintf("sim: unknown register %q", name))
	}
	return cell.val
}

// Digest returns the incrementally maintained structural digest of the
// heap: a 64-bit hash covering every register's value, every object's
// type and current state, and the fresh-name counter — the same
// configuration identity Snapshot renders textually, at O(1) instead of
// O(cells · log cells) per call. Two memories whose executions diverged
// anywhere collide only with hash probability; the model checker pairs
// it with per-process history digests, so a collision additionally
// requires identical histories (see mc's fingerprint and its parity
// fuzz target).
func (m *Memory) Digest() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return intern.MixPair(m.structHash, uint64(m.nextID))
}

// Snapshot returns a canonical textual dump of the entire non-volatile
// heap: every register's value, every object's type and current state,
// and the fresh-name counter, in sorted order. Two memories with equal
// snapshots are indistinguishable to any future execution. It remains
// the legacy (pre-incremental) configuration fingerprint for the model
// checker's parity tests, and the human-readable heap dump for
// diagnostics.
func (m *Memory) Snapshot() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Rendered by hand into one buffer (strconv.AppendQuote matches
	// fmt's %q byte for byte): the whole dump costs two allocations
	// instead of several per cell.
	buf := make([]byte, 0, 32+48*(len(m.regs)+len(m.objs)))
	for _, name := range m.sortedRegNamesLocked() {
		buf = append(buf, "r "...)
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, m.regs[name].val)
		buf = append(buf, '\n')
	}
	for _, name := range m.sortedObjNamesLocked() {
		cell := m.objs[name]
		buf = append(buf, "o "...)
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, ':')
		buf = append(buf, cell.o.Type().Name()...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, string(cell.o.Read()))
		buf = append(buf, '\n')
	}
	buf = append(buf, "next="...)
	buf = strconv.AppendInt(buf, int64(m.nextID), 10)
	buf = append(buf, '\n')
	return string(buf)
}

// RegisterNames returns all register names, sorted (for deterministic
// diagnostics). The returned slice is the caller's to keep.
func (m *Memory) RegisterNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.sortedRegNamesLocked()...)
}

// sortedRegNamesLocked returns the cached sorted register-name slice,
// rebuilding it only after an allocation invalidated it. Callers must
// not retain or mutate the result past the lock.
func (m *Memory) sortedRegNamesLocked() []string {
	if m.sortedRegs == nil {
		m.sortedRegs = make([]string, 0, len(m.regs))
		for name := range m.regs {
			m.sortedRegs = append(m.sortedRegs, name)
		}
		sort.Strings(m.sortedRegs)
	}
	return m.sortedRegs
}

func (m *Memory) sortedObjNamesLocked() []string {
	if m.sortedObjs == nil {
		m.sortedObjs = make([]string, 0, len(m.objs))
		for name := range m.objs {
			m.sortedObjs = append(m.sortedObjs, name)
		}
		sort.Strings(m.sortedObjs)
	}
	return m.sortedObjs
}

// The accessors below are the runner's event path. Each hands back the
// interned id of the cell it accessed (and read the id of the value it
// read), so the runner's event digests fold ids the cells already hold.

// read returns register name's value, the register's id and the
// value's id.
func (m *Memory) read(name string) (v Value, nameID, valID uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cell, ok := m.regs[name]
	if !ok {
		panic(fmt.Sprintf("sim: read of unknown register %q", name))
	}
	return cell.val, cell.nameID, cell.valID
}

// write stores v, whose id is valID, in register name and returns the
// register's id.
func (m *Memory) write(name string, v Value, valID uint32) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	cell, ok := m.regs[name]
	if !ok {
		panic(fmt.Sprintf("sim: write to unknown register %q", name))
	}
	m.structHash ^= cell.digest
	cell.val, cell.valID = v, valID
	cell.digest = regDigest(cell.nameID, valID)
	m.structHash ^= cell.digest
	return cell.nameID
}

// apply applies op to object name and returns the response and the
// object's id; ids interns the states of the transition.
func (m *Memory) apply(name string, op spec.Op, ids *intern.Cache) (spec.Response, uint32) {
	m.mu.Lock()
	cell, ok := m.objs[name]
	m.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("sim: apply to unknown object %q", name))
	}
	prev, next, r, err := cell.o.ApplyStates(op)
	if err != nil {
		panic(fmt.Sprintf("sim: apply %s to %q: %v", op, name, err))
	}
	if prev != next {
		// Fold the delta of THIS transition (prev/next come from the same
		// atomic ApplyStates). XOR deltas commute, so even applies racing
		// from outside the simulator's serialization chain correctly:
		// D(S0)^D(S1) ^ D(S1)^D(S2) nets to D(S0)^D(S2) in any order.
		delta := objDigest(cell.nameID, cell.typeID, ids.ID(string(prev))) ^
			objDigest(cell.nameID, cell.typeID, ids.ID(string(next)))
		m.mu.Lock()
		m.structHash ^= delta
		m.mu.Unlock()
	}
	return r, cell.nameID
}

// readObj returns object name's state and the object's id.
func (m *Memory) readObj(name string) (spec.State, uint32) {
	m.mu.Lock()
	cell, ok := m.objs[name]
	m.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("sim: read of unknown object %q", name))
	}
	return cell.o.Read(), cell.nameID
}
