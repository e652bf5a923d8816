package rc

import (
	"fmt"
	"strconv"

	"rcons/internal/sim"
)

// SimultaneousRC is the Figure 4 / Appendix A algorithm: recoverable
// consensus in the *simultaneous* crash model built from an unbounded
// sequence of standard consensus instances C_1, C_2, … — the constructive
// half of Theorem 1 ("RC is solvable among n processes with simultaneous
// crashes iff cons(T) ≥ n").
//
// Each process p_j walks the rounds: in round r it consults C_r at most
// once (the Round[j] register guards against re-invocation after a
// crash, Lemma 27), records C_r's output in D[r], and terminates when no
// process has moved past round r (line 44). Rounds, and hence consensus
// instances, are materialized lazily, matching the paper's use of
// unboundedly many objects (footnote 2).
//
// The consensus instances are pluggable (Sub); the default CASInstance
// uses one compare&swap object per round. The algorithm is correct only
// under the Simultaneous failure model; the package tests also
// demonstrate, on an explicit schedule, how *independent* crashes break
// it — which is precisely why the paper's main sections are needed.
type SimultaneousRC struct {
	// Procs is the number of participating processes.
	Procs int
	// NS namespaces the shared cells.
	NS string
	// Sub supplies the per-round standard consensus instances.
	Sub Instance

	// rounds names the Round[j] registers; dPre and cPre are the name
	// prefixes of the per-round D[r] registers and C[r] instances, whose
	// round index is unbounded. NewSimultaneousRC builds them once.
	rounds     []string
	dPre, cPre string
}

var _ Algorithm = (*SimultaneousRC)(nil)

// NewSimultaneousRC returns the Figure 4 algorithm for n processes using
// CAS-based consensus instances.
func NewSimultaneousRC(n int, ns string) *SimultaneousRC {
	rounds := make([]string, n)
	for j := range rounds {
		rounds[j] = fmt.Sprintf("%s/Round[%d]", ns, j)
	}
	return &SimultaneousRC{Procs: n, NS: ns, Sub: CASInstance{}, rounds: rounds, dPre: ns + "/D[", cPre: ns + "/C["}
}

// Name implements Algorithm.
func (s *SimultaneousRC) Name() string { return "simultaneous-rc" }

// N implements Algorithm.
func (s *SimultaneousRC) N() int { return s.Procs }

func (s *SimultaneousRC) roundReg(j int) string { return s.rounds[j] }
func (s *SimultaneousRC) dReg(r int) string     { return s.dPre + strconv.Itoa(r) + "]" }
func (s *SimultaneousRC) consName(r int) string { return s.cPre + strconv.Itoa(r) + "]" }

// Setup implements Algorithm: Round[1..n] registers initialized to 0
// (line 31); the D array and the consensus instances are allocated
// lazily by the bodies.
func (s *SimultaneousRC) Setup(m *sim.Memory) {
	for j := 0; j < s.Procs; j++ {
		m.AddRegister(s.roundReg(j), "0")
	}
}

// Body implements Algorithm, transcribing Figure 4 lines 33–52 for
// process p_j.
func (s *SimultaneousRC) Body(j int, input sim.Value) sim.Body {
	return func(p *sim.Proc) sim.Value {
		pref := input       // line 34
		for r := 1; ; r++ { // lines 35–36, 50
			p.EnsureRegister(s.dReg(r), sim.None)
			myRound, err := strconv.Atoi(p.Read(s.roundReg(j))) // line 37
			if err != nil {
				panic(fmt.Sprintf("rc: corrupt Round[%d]: %v", j, err))
			}
			if myRound < r {
				p.Write(s.roundReg(j), strconv.Itoa(r)) // line 38
				if r > 1 {                              // line 39
					if d := p.Read(s.dReg(r - 1)); d != sim.None {
						pref = d // line 40
					}
				}
				pref = s.Sub.Decide(p, s.consName(r), pref) // line 42
				p.Write(s.dReg(r), pref)                    // line 43
				all := true                                 // line 44: if ∀k, Round[k] ≤ r
				for k := 0; k < s.Procs; k++ {
					rk, err := strconv.Atoi(p.Read(s.roundReg(k)))
					if err != nil {
						panic(fmt.Sprintf("rc: corrupt Round[%d]: %v", k, err))
					}
					if rk > r {
						all = false
						break
					}
				}
				if all {
					return pref // line 45
				}
			} else if r > 1 { // line 47
				if d := p.Read(s.dReg(r - 1)); d != sim.None {
					pref = d // line 48
				}
			}
		}
	}
}
