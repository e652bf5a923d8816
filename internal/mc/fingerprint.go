package mc

import (
	"fmt"

	"rcons/internal/sim"
)

// Fingerprint is the search's 128-bit configuration-pruning key: two
// equal fingerprints mean (up to hash collision) the same non-volatile
// heap, the same per-process histories since each process's last crash,
// the same decisions and the same crash usage. Values are comparable;
// they are meaningful only within one process (the incremental pipeline
// builds on the process-wide intern table) and must never be persisted.
type Fingerprint [2]uint64

// String renders the fingerprint for test diagnostics.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x%016x", f[0], f[1]) }

// FingerprintProbe holds the executed state of one schedule prefix of a
// target — memory, outcome, crash usage — with both the rolling digests
// the incremental fingerprint reads and the full event trace recorded,
// so the parity tests and FuzzFingerprintParity can compare it with the
// tests' textual reference fingerprint on exactly the same
// configuration. The fingerprint benchmarks time Incremental on it; the
// search itself records only the digests.
type FingerprintProbe struct {
	s       *search
	m       *sim.Memory
	out     *sim.Outcome
	crashes int
}

// NewFingerprintProbe executes the schedule prefix against a fresh
// instance of tgt (halting at the script's end, exactly like a search
// node) and captures the reached configuration. Inadmissible scripts
// surface as errors wrapping sim.ErrScript.
func NewFingerprintProbe(tgt Target, script []sim.Action, opts Options) (*FingerprintProbe, error) {
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
	return &FingerprintProbe{s: s, m: m, out: out, crashes: crashes}, nil
}

// Incremental computes the configuration fingerprint with the default
// pipeline: Memory.Digest plus the per-process rolling event hashes.
func (p *FingerprintProbe) Incremental() Fingerprint {
	return p.s.incrementalFingerprint(p.out, p.m, p.crashes)
}
