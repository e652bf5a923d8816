// Package rcons is a Go reproduction of the PODC 2022 paper "When Is
// Recoverable Consensus Harder Than Consensus?" by Delporte-Gallet,
// Fatourou, Fauconnier and Ruppert (arXiv:2205.14213).
//
// Recoverable consensus (RC) is consensus in an asynchronous shared-
// memory system with non-volatile shared memory, where processes may
// crash — losing all local state, including their program counter — and
// recover, restarting their code from the beginning. The paper
// characterizes which deterministic *readable* object types can solve RC
// among n processes via the n-recording property, relates it to
// Ruppert's n-discerning property (which characterizes standard
// consensus), and proves cons(T) − 2 ≤ rcons(T) ≤ cons(T).
//
// This package is the public facade over the implementation:
//
//   - sequential specifications and the type zoo, including the paper's
//     separating families T_n (Figure 5) and S_n (Figure 6)
//     (internal/spec, internal/types);
//   - exact decision procedures for n-recording (Definition 4) and
//     n-discerning (Definition 2), with exhaustive witness search and
//     cons/rcons band derivation (internal/checker);
//   - a deterministic crash-recovery simulator with non-volatile shared
//     memory and independent or simultaneous failures (internal/sim);
//   - the paper's algorithms: Figure 2 recoverable team consensus, the
//     Appendix B tournament, the Figure 4 simultaneous-crash transform
//     (internal/rc), and the Figure 7 recoverable universal construction
//     (internal/universal) with linearizability checking
//     (internal/history);
//   - an experiment harness regenerating every figure-level artifact
//     (internal/harness), exposed here via RunExperiments;
//   - a sharded, worker-pool-parallel classification engine
//     (internal/engine) exposed here via NewEngine, and served over HTTP
//     by cmd/rcserve.
//
// See README.md for a tour of the commands, packages and experiments.
package rcons

import (
	"context"

	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/harness"
	"rcons/internal/history"
	"rcons/internal/rc"
	"rcons/internal/sim"
	"rcons/internal/spec"
	"rcons/internal/types"
	"rcons/internal/universal"
)

// Core specification types.
type (
	// Type is a deterministic sequential object specification.
	Type = spec.Type
	// State is a canonical object state encoding.
	State = spec.State
	// Op is an update operation (name plus arguments).
	Op = spec.Op
	// Response is an operation response.
	Response = spec.Response
	// Object is an atomic shared object instance.
	Object = spec.Object
)

// Checker types.
type (
	// Witness is a candidate (q0, teams, ops) assignment for the
	// n-recording / n-discerning properties.
	Witness = checker.Witness
	// Classification reports a type's derived cons/rcons bands.
	Classification = checker.Classification
	// MaxLevel is the maximal level at which a property holds.
	MaxLevel = checker.MaxLevel
)

// Engine types: the concurrent classification engine.
type (
	// Engine runs sharded parallel witness searches and classifications.
	Engine = engine.Engine
	// EngineOptions sets the worker-pool width and an optional
	// persistent store.
	EngineOptions = engine.Options
	// EngineCacheStats reports the classifications derived and the
	// persistent-store counters.
	EngineCacheStats = engine.CacheStats
	// Property selects n-recording or n-discerning for engine searches.
	Property = engine.Property
)

// Engine property selectors (re-exported constants).
const (
	// Recording is the n-recording property (Definition 4).
	Recording = engine.Recording
	// Discerning is the n-discerning property (Definition 2).
	Discerning = engine.Discerning
)

// Simulator types.
type (
	// Memory is the non-volatile shared heap.
	Memory = sim.Memory
	// Proc is a process handle inside a simulated execution.
	Proc = sim.Proc
	// Body is one process's code.
	Body = sim.Body
	// Config parameterizes an execution (seed, crash model, script).
	Config = sim.Config
	// Outcome summarizes a finished execution.
	Outcome = sim.Outcome
	// Value is a register value / input / decision.
	Value = sim.Value
)

// Algorithm types.
type (
	// Algorithm is a recoverable consensus protocol.
	Algorithm = rc.Algorithm
	// TeamConsensus is the Figure 2 algorithm.
	TeamConsensus = rc.TeamConsensus
	// Tournament is the Appendix B reduction to full RC.
	Tournament = rc.Tournament
	// SimultaneousRC is the Figure 4 transform.
	SimultaneousRC = rc.SimultaneousRC
	// Universal is the Figure 7 recoverable universal construction.
	Universal = universal.Universal
	// Recorder collects operation histories for linearizability checks.
	Recorder = history.Recorder
)

// Failure models (re-exported constants).
const (
	// IndependentCrashes is the paper's main model: processes crash and
	// recover individually.
	IndependentCrashes = sim.Independent
	// SimultaneousCrashes is the system-wide failure model of Section 2.
	SimultaneousCrashes = sim.Simultaneous
)

// TypeByName resolves a zoo type by name (e.g. "cas", "stack", "T_5",
// "S_3"); see internal/types.ByName for the accepted syntax.
func TypeByName(name string) (Type, error) { return types.ByName(name) }

// Zoo returns representative instances of every implemented type.
func Zoo() []Type { return types.Zoo() }

// Readable reports whether t is readable in the paper's sense (required
// by Theorems 3 and 8).
func Readable(t Type) bool { return types.Readable(t) }

// Classify scans t's n-recording and n-discerning levels up to limit and
// derives its cons/rcons bands per the paper's theorems.
func Classify(t Type, limit int) (Classification, error) {
	return checker.Classify(t, limit)
}

// NewEngine builds a concurrent classification engine; its Classify,
// ClassifyAll, Scan and Search methods produce results identical to the
// sequential functions above, sharded over a worker pool. With a
// persistent store, search results are read from and written through to
// it under exact type fingerprints.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// ClassifyParallel classifies t on a throwaway engine with one worker
// per CPU — the one-call parallel counterpart of Classify. Reuse a
// NewEngine instance instead when classifying concurrently, so one
// worker pool bounds every search.
func ClassifyParallel(ctx context.Context, t Type, limit int) (Classification, error) {
	return engine.New(engine.Options{}).Classify(ctx, t, limit)
}

// MaxRecording returns the largest n ≤ limit at which t is n-recording.
func MaxRecording(t Type, limit int) (MaxLevel, error) {
	return checker.MaxRecording(t, limit)
}

// MaxDiscerning returns the largest n ≤ limit at which t is n-discerning.
func MaxDiscerning(t Type, limit int) (MaxLevel, error) {
	return checker.MaxDiscerning(t, limit)
}

// SearchRecording looks for an n-recording witness for t (nil if none
// exists over the candidate sets).
func SearchRecording(t Type, n int) (*Witness, error) {
	return checker.SearchRecording(t, n)
}

// SearchDiscerning looks for an n-discerning witness for t.
func SearchDiscerning(t Type, n int) (*Witness, error) {
	return checker.SearchDiscerning(t, n)
}

// NewTeamConsensus builds the Figure 2 recoverable team consensus from a
// verified n-recording witness for a readable type.
func NewTeamConsensus(t Type, w Witness, namespace string) (*TeamConsensus, error) {
	return rc.NewTeamConsensus(t, w, namespace)
}

// NewTournament builds full k-process recoverable consensus from an
// n-recording witness (k ≤ n) via the Appendix B tournament.
func NewTournament(t Type, w Witness, k int, namespace string) (*Tournament, error) {
	return rc.NewTournament(t, w, k, namespace)
}

// NewSimultaneousRC builds the Figure 4 algorithm for the simultaneous
// crash model.
func NewSimultaneousRC(n int, namespace string) *SimultaneousRC {
	return rc.NewSimultaneousRC(n, namespace)
}

// NewCASConsensus builds the compare&swap RC baseline.
func NewCASConsensus(n int, namespace string) Algorithm {
	return rc.NewCASConsensus(n, namespace)
}

// RunRC executes an RC algorithm in a fresh memory under cfg and
// validates agreement and validity; see rc.Run.
func RunRC(alg Algorithm, inputs []Value, cfg Config) (*Outcome, error) {
	return rc.Run(alg, inputs, cfg)
}

// NewUniversal builds the Figure 7 recoverable universal construction
// implementing an object of type t (initial state q0) for n processes.
func NewUniversal(n int, t Type, q0 State, namespace string) *Universal {
	return universal.New(n, t, q0, namespace)
}

// NewMemory returns an empty non-volatile shared heap.
func NewMemory() *Memory { return sim.NewMemory() }

// NewRunner prepares a simulated execution; see sim.NewRunner.
func NewRunner(m *Memory, bodies []Body, cfg Config) *sim.Runner {
	return sim.NewRunner(m, bodies, cfg)
}

// ExperimentOptions tunes the paper-reproduction experiments.
type ExperimentOptions = harness.Options

// ExperimentReport is the outcome of one reproduction experiment.
type ExperimentReport = harness.Report

// RunExperiments regenerates every figure-level artifact of the paper
// and returns the reports (see harness.All for the index).
func RunExperiments(opts ExperimentOptions) ([]*ExperimentReport, error) {
	return harness.RunAll(opts)
}
