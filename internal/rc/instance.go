package rc

import (
	"fmt"
	"sync"

	"rcons/internal/checker"
	"rcons/internal/sim"
	"rcons/internal/spec"
)

// TournamentInstance adapts the Appendix B tournament into the Instance
// interface, so constructions that need dynamically-minted RC instances
// (notably the universal construction's per-node next pointers) can run
// on *any* readable n-recording type — not just compare&swap. Each named
// instance lazily materializes a full tournament (team-consensus objects
// and registers) under that name.
//
// The calling process's simulator ID selects its position in the
// tournament, so an instance built from an n-recording witness serves
// processes 0 … k-1 with k ≤ n.
type TournamentInstance struct {
	typ spec.Type
	w   checker.Witness
	k   int

	mu    sync.Mutex // guards cache for instances shared across goroutines
	cache map[string]*Tournament
}

var _ Instance = (*TournamentInstance)(nil)

// NewTournamentInstance validates the witness once and returns the
// instance factory for k processes.
func NewTournamentInstance(t spec.Type, w checker.Witness, k int) (*TournamentInstance, error) {
	// Build a throwaway tournament to validate witness and sizes early.
	if _, err := NewTournament(t, w, k, "probe"); err != nil {
		return nil, err
	}
	return &TournamentInstance{typ: t, w: w, k: k, cache: map[string]*Tournament{}}, nil
}

// Decide implements Instance. The scheduler runs one body at a time; the
// cache is mutex-guarded only so that an instance stays safe if shared
// by executions on different goroutines.
//
// Input pinning (the paper's Appendix F remark): a caller that crashes
// and recovers may re-invoke Decide on the SAME instance with a
// DIFFERENT input — in the universal construction the helped pointer can
// change between retries. The tournament's agreement-across-runs
// guarantee assumes stable inputs, so Decide first pins the caller's
// input in a per-(instance, process) register (the introduction's input
// transform) and runs the tournament on the pinned value. Without this,
// agreement genuinely breaks: the repository's crash-sweep benchmark
// found executions where a recovered helper flipped an already-decided
// next pointer, double-appending a node.
func (ti *TournamentInstance) Decide(p *sim.Proc, name string, input sim.Value) sim.Value {
	ti.mu.Lock()
	tr, ok := ti.cache[name]
	if !ok {
		var err error
		tr, err = NewTournament(ti.typ, ti.w, ti.k, name)
		if err != nil {
			// The constructor was validated in NewTournamentInstance;
			// failure here is a programming error.
			ti.mu.Unlock()
			panic(fmt.Sprintf("rc: tournament instance %q: %v", name, err))
		}
		ti.cache[name] = tr
	}
	ti.mu.Unlock()
	tr.EnsureCells(p)
	pin := fmt.Sprintf("%s/pin[%d]", name, p.ID())
	p.EnsureRegister(pin, sim.None)
	v := p.Read(pin)
	if v == sim.None {
		v = input
		p.Write(pin, v)
	}
	return tr.Body(p.ID(), v)(p)
}
