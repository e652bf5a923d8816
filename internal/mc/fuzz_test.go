package mc

import (
	"errors"
	"sync"
	"testing"

	"rcons/internal/sim"
)

// fuzzTargets are the systems FuzzFingerprintParity probes: cheap
// builtin targets covering plain registers+objects (cas), the Figure 2
// machine (team-sn/team-cas), a broken variant (whose configurations
// include post-violation states), and the simultaneous failure model.
// Targets are built once — the fuzzer executes thousands of prefixes and
// construction is pure setup.
var fuzzTargets = struct {
	once sync.Once
	tgts []Target
	errs []error
}{}

func fuzzTargetList(t testing.TB) []Target {
	fuzzTargets.once.Do(func() {
		for _, name := range []string{"cas", "team-sn", "team-cas", "unsafe-noyield", "simultaneous"} {
			tgt, err := TargetByName(name, 2)
			fuzzTargets.tgts = append(fuzzTargets.tgts, tgt)
			fuzzTargets.errs = append(fuzzTargets.errs, err)
		}
	})
	for _, err := range fuzzTargets.errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return fuzzTargets.tgts
}

// decodeSchedule turns fuzz bytes into a schedule for a 2-process
// target: each byte selects a step of p0/p1, a crash of p0/p1 (CrashAll
// under the simultaneous model), biased 3:1 toward steps so prefixes
// usually make progress. Length is capped to keep each probe bounded.
func decodeSchedule(raw []byte, model sim.FailureModel) []sim.Action {
	const maxLen = 10
	var out []sim.Action
	for _, b := range raw {
		if len(out) >= maxLen {
			break
		}
		switch v := b % 8; {
		case v < 3:
			out = append(out, sim.Step(0))
		case v < 6:
			out = append(out, sim.Step(1))
		default:
			if model == sim.Simultaneous {
				out = append(out, sim.CrashAll())
			} else {
				out = append(out, sim.Crash(int(v)-6))
			}
		}
	}
	return out
}

// FuzzFingerprintParity drives random schedule prefixes through both
// fingerprint pipelines and asserts they induce the SAME equivalence on
// configurations: two prefixes get equal incremental fingerprints
// exactly when they get equal legacy (Snapshot+trace+SHA-256)
// fingerprints. Divergence in either direction would be a pruning
// soundness bug (incremental merges configurations the legacy oracle
// separates) or a pruning-power regression (incremental separates what
// legacy merges). It also asserts incremental fingerprints are
// reproducible across independent executions of the same prefix.
func FuzzFingerprintParity(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 6}, []byte{3, 0, 6})
	f.Add(uint8(1), []byte{0, 0, 1, 7}, []byte{0, 0, 1, 6})
	f.Add(uint8(2), []byte{6, 0, 1, 0}, []byte{0, 1, 0, 6})
	f.Add(uint8(3), []byte{0, 3, 0, 3, 6, 0}, []byte{3, 0, 3, 0, 6, 0})
	f.Add(uint8(4), []byte{0, 1, 7, 0, 1}, []byte{1, 0, 7, 1, 0})

	f.Fuzz(func(t *testing.T, tgtSel uint8, rawA, rawB []byte) {
		tgts := fuzzTargetList(t)
		tgt := tgts[int(tgtSel)%len(tgts)]

		probe := func(raw []byte) *fingerprintProbe {
			p, err := newFingerprintProbe(tgt, decodeSchedule(raw, tgt.Model), Options{})
			if err != nil {
				if errors.Is(err, sim.ErrScript) {
					return nil // inadmissible prefix (e.g. steps a decided process)
				}
				t.Fatalf("probe %v: %v", raw, err)
			}
			return p
		}
		pa, pb := probe(rawA), probe(rawB)
		if pa == nil || pb == nil {
			return
		}

		incEq := pa.incremental() == pb.incremental()
		legEq := pa.legacy() == pb.legacy()
		if incEq != legEq {
			t.Fatalf("fingerprint parity broken on %s:\n  a=%s\n  b=%s\n  incremental equal=%v, legacy equal=%v",
				tgt.Name,
				sim.FormatScript(decodeSchedule(rawA, tgt.Model)),
				sim.FormatScript(decodeSchedule(rawB, tgt.Model)),
				incEq, legEq)
		}

		// Reproducibility: a second independent execution of prefix A
		// must land on the identical incremental fingerprint.
		if again := probe(rawA); again == nil || again.incremental() != pa.incremental() {
			t.Fatalf("incremental fingerprint of %v not reproducible", rawA)
		}
	})
}
