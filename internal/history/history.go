// Package history records operation histories of implemented shared
// objects and checks them for linearizability against a sequential
// specification (Wing & Gong-style exhaustive search with memoization).
// It is used to validate the recoverable universal construction of the
// paper's Section 4 / Figure 7: every execution, however the adversary
// crashes processes, must produce a history linearizable with respect to
// the implemented type — and, because recovery completes interrupted
// operations, a *complete* history.
package history

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rcons/internal/spec"
)

// OpEvent is one operation instance in a history.
type OpEvent struct {
	// Proc is the invoking process; Seq its per-process operation index.
	Proc, Seq int
	// Op is the operation applied to the implemented object.
	Op spec.Op
	// Resp is the response returned to the caller (valid iff Completed).
	Resp spec.Response
	// Invoke and Return are logical times (simulator step counts). For
	// operations retried after crashes, Invoke is the first attempt's
	// invocation and Return the final attempt's response time.
	Invoke, Return int
	// Completed reports whether the operation returned to its caller.
	Completed bool
}

// String renders the event compactly.
func (e OpEvent) String() string {
	status := "…"
	if e.Completed {
		status = string(e.Resp)
	}
	return fmt.Sprintf("p%d#%d %s → %s [%d,%d]", e.Proc, e.Seq, e.Op, status, e.Invoke, e.Return)
}

// Recorder accumulates operation events during a simulated execution.
// The scheduler runs one body at a time; the recorder is mutex-guarded
// only so that it stays safe for concurrent use outside the simulator.
type Recorder struct {
	mu     sync.Mutex
	events map[[2]int]*OpEvent // keyed by (proc, seq)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{events: map[[2]int]*OpEvent{}}
}

// Invoke records the start of operation (proc, seq); retries after a
// crash keep the earliest invocation time.
func (r *Recorder) Invoke(proc, seq int, op spec.Op, now int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := [2]int{proc, seq}
	if e, ok := r.events[key]; ok {
		_ = e // keep the first invocation time
		return
	}
	r.events[key] = &OpEvent{Proc: proc, Seq: seq, Op: op, Invoke: now, Return: -1}
}

// Return records the completion of operation (proc, seq).
func (r *Recorder) Return(proc, seq int, resp spec.Response, now int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := [2]int{proc, seq}
	e, ok := r.events[key]
	if !ok {
		panic(fmt.Sprintf("history: Return without Invoke for p%d#%d", proc, seq))
	}
	e.Resp, e.Return, e.Completed = resp, now, true
}

// Events returns the recorded history sorted by (Invoke, Proc, Seq).
func (r *Recorder) Events() []OpEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]OpEvent, 0, len(r.events))
	for _, e := range r.events {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Invoke != out[j].Invoke {
			return out[i].Invoke < out[j].Invoke
		}
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// CheckLinearizable searches for a linearization of hist that respects
// real-time order (an operation that returned before another was invoked
// must be linearized first) and the sequential specification of t
// starting from q0. Incomplete operations (crash-interrupted, never
// completed) may be linearized with any response or omitted, following
// strict linearizability's treatment.
//
// It returns a witness order (indices into hist) when one exists. The
// search is exponential in the worst case but memoized on
// (linearized-set, state); keep histories under ~20 operations.
func CheckLinearizable(t spec.Type, q0 spec.State, hist []OpEvent) ([]int, bool, error) {
	n := len(hist)
	if n > 63 {
		return nil, false, fmt.Errorf("history: %d operations exceed the checker's capacity", n)
	}
	// memo of failed (doneMask, state) configurations.
	failed := map[string]bool{}
	order := make([]int, 0, n)

	var dfs func(done uint64, state spec.State) bool
	dfs = func(done uint64, state spec.State) bool {
		if popcount(done) == n {
			return true
		}
		key := strconv.FormatUint(done, 16) + "|" + string(state)
		if failed[key] {
			return false
		}
		// minReturn: the earliest Return among completed, unlinearized
		// ops; any candidate must have been invoked before it finished.
		minReturn := int(^uint(0) >> 1)
		for i, e := range hist {
			if done&(1<<uint(i)) != 0 || !e.Completed {
				continue
			}
			if e.Return < minReturn {
				minReturn = e.Return
			}
		}
		for i, e := range hist {
			if done&(1<<uint(i)) != 0 {
				continue
			}
			if e.Invoke > minReturn {
				continue // would violate real-time order
			}
			ns, resp, err := t.Apply(state, e.Op)
			if err != nil {
				continue // op not applicable: cannot linearize here
			}
			if e.Completed && resp != e.Resp {
				continue
			}
			order = append(order, i)
			if dfs(done|1<<uint(i), ns) {
				return true
			}
			order = order[:len(order)-1]
		}
		// Incomplete operations may also be dropped entirely (they never
		// took effect), regardless of their invocation time.
		for i, e := range hist {
			if done&(1<<uint(i)) != 0 || e.Completed {
				continue
			}
			order = append(order, -1)
			if dfs(done|1<<uint(i), state) {
				return true
			}
			order = order[:len(order)-1]
		}
		failed[key] = true
		return false
	}
	if dfs(0, q0) {
		clean := make([]int, 0, len(order))
		for _, i := range order {
			if i >= 0 {
				clean = append(clean, i)
			}
		}
		return clean, true, nil
	}
	return nil, false, nil
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// FormatHistory renders a history one event per line for diagnostics.
func FormatHistory(hist []OpEvent) string {
	var b strings.Builder
	for i, e := range hist {
		fmt.Fprintf(&b, "%3d  %s\n", i, e)
	}
	return b.String()
}

// CheckProgramOrder verifies that each process's operations were invoked
// and completed in per-process sequence order (a sanity property every
// well-formed history must have).
func CheckProgramOrder(hist []OpEvent) error {
	byProc := map[int][]OpEvent{}
	for _, e := range hist {
		byProc[e.Proc] = append(byProc[e.Proc], e)
	}
	for proc, evs := range byProc {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
		for i, e := range evs {
			if e.Seq != i {
				return fmt.Errorf("history: process %d is missing operation #%d", proc, i)
			}
			if i > 0 && evs[i-1].Completed && e.Invoke < evs[i-1].Return {
				return fmt.Errorf("history: process %d invoked op #%d before op #%d returned", proc, e.Seq, evs[i-1].Seq)
			}
		}
	}
	return nil
}
