package mc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"rcons/internal/sim"
)

// This file holds the two independent oracles the search is tested
// against. Neither is used in production: the search prunes with the
// incremental fingerprint only.

// legacyFingerprint is the textual reference pipeline for configuration
// fingerprints: the full Memory.Snapshot plus a re-walk of the event
// trace (each process's events since its last crash, with global
// positions for clock-sensitive targets), hashed with SHA-256. It needs
// the run's full trace. The incremental pipeline must induce exactly the
// same equivalence on configurations (TestVerdictParityAllTargets,
// TestFingerprintProbeParity, FuzzFingerprintParity).
func legacyFingerprint(tgt Target, out *sim.Outcome, m *sim.Memory, crashesUsed int) Fingerprint {
	var b strings.Builder
	b.WriteString(m.Snapshot())

	n := len(out.Decided)
	sinceCrash := make([][]string, n)
	for pos, e := range out.Trace {
		if e.Proc < 0 || e.Proc >= n {
			continue
		}
		if e.Kind == sim.TraceCrash {
			sinceCrash[e.Proc] = sinceCrash[e.Proc][:0]
			continue
		}
		ev := e.String()
		if tgt.ClockSensitive {
			ev = fmt.Sprintf("@%d:%s", pos, ev)
		}
		sinceCrash[e.Proc] = append(sinceCrash[e.Proc], ev)
	}
	for i := 0; i < n; i++ {
		if out.Decided[i] {
			fmt.Fprintf(&b, "p%d=decided:%q\n", i, out.Decisions[i])
			continue
		}
		fmt.Fprintf(&b, "p%d=run:%s\n", i, strings.Join(sinceCrash[i], ";"))
	}
	fmt.Fprintf(&b, "crashes=%d\n", crashesUsed)
	sum := sha256.Sum256([]byte(b.String()))
	return Fingerprint{
		binary.LittleEndian.Uint64(sum[0:8]),
		binary.LittleEndian.Uint64(sum[8:16]),
	}
}

// fingerprintProbe holds the executed state of one schedule prefix of a
// target — memory, outcome, crash usage — with both the rolling digests
// the incremental fingerprint reads and the full event trace recorded,
// so the parity tests and FuzzFingerprintParity can compare it with the
// textual reference fingerprint on exactly the same configuration.
// BenchmarkFingerprintIncremental times incremental on it; the search
// itself records only the digests.
type fingerprintProbe struct {
	s       *search
	m       *sim.Memory
	out     *sim.Outcome
	crashes int
}

// newFingerprintProbe executes the schedule prefix against a fresh
// instance of tgt (halting at the script's end, exactly like a search
// node) and captures the reached configuration. Inadmissible scripts
// surface as errors wrapping sim.ErrScript.
func newFingerprintProbe(tgt Target, script []sim.Action, opts Options) (*fingerprintProbe, error) {
	if tgt.Factory == nil || tgt.Check == nil {
		return nil, fmt.Errorf("mc: Target.Factory and Target.Check must be set")
	}
	if tgt.Model == 0 {
		tgt.Model = sim.Independent
	}
	s := &search{tgt: tgt, opts: opts.filled()}
	m, bodies, _ := tgt.Factory()
	cfg := sim.Config{
		Model:              tgt.Model,
		Script:             script,
		HaltAtScriptEnd:    true,
		DecideRequiresStep: true,
		MaxSteps:           s.opts.MaxSteps,
	}
	r := sim.NewRunner(m, bodies, cfg)
	r.RecordTrace()
	r.RecordDigests()
	out, err := r.Run()
	if err != nil {
		return nil, err
	}
	crashes := 0
	for _, a := range script {
		if a.Kind != sim.ActStep {
			crashes++
		}
	}
	return &fingerprintProbe{s: s, m: m, out: out, crashes: crashes}, nil
}

// incremental computes the configuration fingerprint with the default
// pipeline: Memory.Digest plus the per-process rolling event hashes.
func (p *fingerprintProbe) incremental() Fingerprint {
	return p.s.incrementalFingerprint(p.out, p.m, p.crashes)
}

// legacy fingerprints the probe's configuration with the reference
// pipeline.
func (p *fingerprintProbe) legacy() Fingerprint {
	return legacyFingerprint(p.s.tgt, p.out, p.m, p.crashes)
}

// withLegacyPipeline returns opts with the search's pruning keys
// computed by the reference pipeline instead of the incremental one.
func withLegacyPipeline(opts Options) Options {
	opts.fingerprintOracle = legacyFingerprint
	return opts
}

// freshRun executes script against a new instance of tgt in a single
// sim.Runner.Run, configured as the search configures its executions:
// halted at the script's end, or extended by the fair completion. It
// never pauses or continues a run, so the oracles built on it stay
// independent of the search's continued executions. Trace, schedule and
// digests are all recorded.
func freshRun(tgt Target, script []sim.Action, halt bool) ([]sim.Value, *sim.Memory, *sim.Outcome, error) {
	m, bodies, inputs := tgt.Factory()
	r := sim.NewRunner(m, bodies, sim.Config{
		Model:              tgt.Model,
		Script:             script,
		HaltAtScriptEnd:    halt,
		FairCompletion:     !halt,
		DecideRequiresStep: true,
		MaxSteps:           Options{}.filled().MaxSteps,
	})
	r.RecordTrace()
	r.RecordDigests()
	r.RecordSchedule()
	out, err := r.Run()
	return inputs, m, out, err
}

// enumerate is the pruning-free oracle for the search: a sequential
// depth-first walk over EVERY schedule prefix of tgt up to maxDepth with
// at most crashBudget crash events — no fingerprints, no root
// partitioning, no iterative deepening, no continued executions. Each
// prefix is executed from scratch (freshRun) and checked as a search
// node is; one that reaches maxDepth with live processes is extended by
// its fair completion. It returns the number of prefixes executed and
// the first violation.
func enumerate(tgt Target, maxDepth, crashBudget int) (prefixes int, err error) {
	run := func(script []sim.Action, halt bool) (*sim.Outcome, error) {
		inputs, m, out, err := freshRun(tgt, script, halt)
		if err == nil {
			err = tgt.Check(inputs, m, out)
		}
		if err != nil {
			return nil, fmt.Errorf("schedule %s: %w", sim.FormatScript(script), err)
		}
		return out, nil
	}
	var extend func(script []sim.Action, crashes int) error
	extend = func(script []sim.Action, crashes int) error {
		prefixes++
		out, err := run(script, true)
		if err != nil {
			return err
		}
		live := appendLive(nil, out)
		if len(live) == 0 {
			return nil
		}
		if len(script) >= maxDepth {
			_, err := run(script, false)
			return err
		}
		var next []sim.Action
		for _, p := range live {
			next = append(next, sim.Step(p))
			if crashes < crashBudget && tgt.Model == sim.Independent {
				next = append(next, sim.Crash(p))
			}
		}
		if crashes < crashBudget && tgt.Model == sim.Simultaneous {
			next = append(next, sim.CrashAll())
		}
		for _, a := range next {
			c := crashes
			if a.Kind != sim.ActStep {
				c++
			}
			if err := extend(append(slices.Clip(script), a), c); err != nil {
				return err
			}
		}
		return nil
	}
	err = extend(nil, 0)
	return prefixes, err
}
