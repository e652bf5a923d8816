package harness

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"rcons/internal/atlas"
	"rcons/internal/atlas/census"
	"rcons/internal/engine"
)

// AtlasCensus (E14) surveys a machine-generated type universe with the
// census pipeline and checks the properties the paper's Figure 1 regime
// imposes on ANY deterministic type, not just the curated zoo: every
// generated type lands in a theorem-consistent band, the census is
// byte-deterministic across worker counts, and the survey reaches bands
// the zoo never exhibits (the scenario-diversity point of the atlas).
func AtlasCensus(opts Options) (*Report, error) {
	opts = opts.filled()
	r := &Report{
		ID: "E14", Artifact: "type atlas", Title: "machine-generated type census",
		Header: []string{"rcons band", "types", "example"},
		Pass:   true,
	}
	limit := opts.Limit
	if limit > 3 {
		limit = 3 // the structure of interest saturates early; keep E14 cheap
	}
	co := census.Options{
		Bounds:        atlas.Bounds{States: 2, Ops: 2, Resps: 2},
		Random:        25 * opts.Seeds,
		RandomBounds:  atlas.Bounds{States: 3, Ops: 2, Resps: 2},
		MutantsPerZoo: 1,
		Seed:          1,
		Limit:         limit,
		Engine:        opts.eng,
	}
	ctx := context.Background()
	a, err := census.Run(ctx, co)
	if err != nil {
		return nil, err
	}
	if err := a.Verify(false); err != nil {
		r.Pass = false
		r.Notes = append(r.Notes, fmt.Sprintf("FAIL: artifact invariants: %v", err))
	}

	// Determinism: a single-worker rerun must reproduce the artifact
	// byte-for-byte. The rerun gets a fresh one-slot engine, so each of
	// its searches runs on the census's one goroutine, with no helper.
	co2 := co
	co2.Workers = 1
	co2.Engine = engine.New(engine.Options{Workers: 1})
	b, err := census.Run(ctx, co2)
	if err != nil {
		return nil, err
	}
	enc1, err := a.Encode()
	if err != nil {
		return nil, err
	}
	enc2, err := b.Encode()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc1, enc2) {
		r.Pass = false
		r.Notes = append(r.Notes, "FAIL: census artifact differs across worker counts")
	}

	bands := make([]string, 0, len(a.RconsBands))
	for band := range a.RconsBands {
		bands = append(bands, band)
	}
	sort.Strings(bands)
	for _, band := range bands {
		example := ""
		if e, ok := a.Extremal.PerRconsBand[band]; ok {
			example = e.Name
			if len(example) > 28 {
				example = example[:28] + "…"
			}
		}
		r.Rows = append(r.Rows, []string{band, fmt.Sprintf("%d", a.RconsBands[band]), example})
	}
	// Each stage's new types, by row source; enumerated classes are never
	// duplicates, so the rest of Generated came from the mutant stage.
	kept := map[string]int{}
	for _, row := range a.Rows {
		kept[row.Source]++
	}
	mutants := a.Generated - kept["enum"] - a.Random
	r.Notes = append(r.Notes,
		fmt.Sprintf("exhaustive block (%s): %d raw tables → %d classes; random stage: %d tables → %d new types; mutant stage: %d tables → %d new types",
			a.Bounds, a.Raw, kept["enum"], a.Random, kept["random"], mutants, kept["mutant"]),
		fmt.Sprintf("universe: %d generated → %d distinct types (%d duplicates) at limit %d",
			a.Generated, a.Types, a.Duplicates, a.Limit),
		fmt.Sprintf("zoo comparison: %d types; novel rcons bands: %v", len(a.Zoo), a.NovelRconsBands),
		fmt.Sprintf("cons>rcons gap gallery: %d entries", len(a.Extremal.Gaps)))
	if len(a.NovelRconsBands) > 0 {
		r.Notes = append(r.Notes, "the generated universe reaches bands no curated zoo type occupies")
	}
	return r, nil
}
