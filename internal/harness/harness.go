// Package harness regenerates every figure-level artifact of the paper
// "When Is Recoverable Consensus Harder Than Consensus?" (PODC 2022) as a
// reproducible experiment. The paper is a theory paper, so its "tables
// and figures" are algorithms, type transition diagrams and proof
// structures; each experiment either verifies the corresponding claim
// mechanically (via package checker) or executes the corresponding
// algorithm under randomized and adversarial crash schedules (via
// packages rc, universal and sim), reporting the same content the figure
// conveys. See All below for the experiment index; `rcexp` prints the
// reports.
package harness

import (
	"fmt"
	"strings"

	"rcons/internal/engine"
)

// Options tunes experiment effort. The zero value is replaced by
// DefaultOptions.
type Options struct {
	// Seeds is the number of random schedules per configuration in
	// execution experiments.
	Seeds int
	// MaxN bounds the process counts swept by the experiments.
	MaxN int
	// Limit bounds checker property scans.
	Limit int
	// Workers sets the classification engine's worker-pool width for the
	// batch experiments (E8/E9); 0 means one worker per CPU.
	Workers int

	// eng is the shared classification engine, created by filled() so
	// that the experiments of a RunAll invocation share its worker slots
	// and the search state of its idle Workers. It keeps no memo: E9
	// classifies its sets again after E8's zoo scan.
	eng *engine.Engine
}

// DefaultOptions returns the effort used by `go test` and cmd/rcexp.
func DefaultOptions() Options { return Options{Seeds: 60, MaxN: 5, Limit: 6} }

func (o Options) filled() Options {
	d := DefaultOptions()
	if o.Seeds <= 0 {
		o.Seeds = d.Seeds
	}
	if o.MaxN < 2 {
		o.MaxN = d.MaxN
	}
	if o.Limit < 2 {
		o.Limit = d.Limit
	}
	if o.eng == nil {
		o.eng = engine.New(engine.Options{Workers: o.Workers})
	}
	return o
}

// Report is the outcome of one experiment: a table plus free-form notes
// and an overall pass flag (false means a paper claim failed to
// reproduce, which would be a bug in this repository).
type Report struct {
	ID       string
	Artifact string
	Title    string
	Header   []string
	Rows     [][]string
	Notes    []string
	Pass     bool
}

// Table renders the report's rows as an aligned text table.
func (r *Report) Table() string {
	if len(r.Header) == 0 {
		return ""
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = visualLen(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && visualLen(cell) > widths[i] {
				widths[i] = visualLen(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-visualLen(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "== %s (%s) %s — %s\n", r.ID, r.Artifact, r.Title, status)
	b.WriteString(r.Table())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// visualLen approximates the printed width of a cell (rune count; the
// tables use only single-width runes).
func visualLen(s string) int { return len([]rune(s)) }

// Experiment couples an experiment with its paper artifact.
type Experiment struct {
	ID       string
	Artifact string
	Title    string
	Run      func(Options) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Artifact: "Figure 1", Title: "implication diagram between n-recording, n-discerning and solvability", Run: Fig1Implications},
		{ID: "E2", Artifact: "Figure 2", Title: "recoverable team consensus from n-recording readable types", Run: Fig2TeamConsensus},
		{ID: "E3", Artifact: "Figure 4", Title: "RC from consensus under simultaneous crashes (Theorem 1)", Run: Fig4Simultaneous},
		{ID: "E4", Artifact: "Figure 5", Title: "T_n is n-discerning but not (n-1)-recording (Proposition 19)", Run: Fig5Tn},
		{ID: "E5", Artifact: "Figure 6", Title: "rcons(S_n) = cons(S_n) = n (Proposition 21)", Run: Fig6Sn},
		{ID: "E6", Artifact: "Figure 7", Title: "recoverable universal construction RUniversal", Run: Fig7Universal},
		{ID: "E7", Artifact: "Figure 8", Title: "stack impossibility ingredients (rcons(stack) = 1, Appendix H)", Run: Fig8Stack},
		{ID: "E8", Artifact: "hierarchy table", Title: "cons/rcons bands for the type zoo", Run: HierarchyTable},
		{ID: "E9", Artifact: "Theorem 22", Title: "RC power of sets of readable types", Run: Thm22Sets},
		{ID: "E10", Artifact: "§3.1 / Theorem 8", Title: "bounded exhaustive model checking of Figure 2", Run: ModelCheck},
		{ID: "E11", Artifact: "§1 motivation", Title: "consensus vs recoverable consensus, executably", Run: Motivation},
		{ID: "E12", Artifact: "scaling", Title: "cost scaling of the constructions with process count", Run: Scaling},
		{ID: "E13", Artifact: "§2 failure models", Title: "systematic crash-schedule model checking of all RC protocols", Run: MCProtocols},
		{ID: "E14", Artifact: "type atlas", Title: "census of a machine-generated type universe (beyond the curated zoo)", Run: AtlasCensus},
	}
}

// RunAll executes every experiment and returns the reports. Options are
// filled once up front so all experiments share one classification
// engine, and with it one bound on the searches running at once.
func RunAll(opts Options) ([]*Report, error) {
	opts = opts.filled()
	var out []*Report
	for _, e := range All() {
		r, err := e.Run(opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
