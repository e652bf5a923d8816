// Package census streams machine-generated types (package atlas)
// through the parallel classification engine and aggregates the results
// into a versioned, byte-reproducible JSON artifact: band histograms,
// recording/discerning level co-occurrence counts, the zoo's bands at
// the same scan limit for comparison, and a gallery of extremal
// witnesses — types in rcons bands no zoo type occupies, and types with
// a proven cons > rcons gap, the paper's title phenomenon.
//
// Generation dedups on canonical bytes: exhaustive enumeration
// minimizes each raw table in place and names a Table only per kept
// class, and a type's transition-table JSON is encoded on demand, only
// for the gallery entries that carry it.
//
// Determinism: generation is single-threaded and seed-driven,
// classification is engine-deterministic (the engine returns the same
// witness regardless of worker count), and aggregation is keyed by
// canonical fingerprints with every map and slice emitted in sorted
// order — so the artifact is byte-identical across reruns with the same
// parameters and across worker counts. The artifact doubles as a resume
// point: rows already classified at the same limit are reused instead of
// re-searched.
package census

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"rcons/internal/atlas"
	"rcons/internal/checker"
)

// Version identifies the artifact schema; bump on incompatible changes.
const Version = 1

// UnboundedHi is the JSON encoding of an upper band end that the scan
// could not bound ("≥ limit", possibly infinite).
const UnboundedHi = -1

// Band is a [lo, hi] bound on a consensus or recoverable-consensus
// number; Hi == UnboundedHi means the scan hit its limit.
type Band struct {
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Display string `json:"display"`
}

func encodeBand(lo, hi, limit int) Band {
	b := Band{Lo: lo, Hi: hi, Display: checker.BandString(lo, hi, limit)}
	if hi >= checker.Unbounded {
		b.Hi = UnboundedHi
	}
	return b
}

// Row is the per-type census record, keyed in Artifact.Rows by the
// type's dedup key.
type Row struct {
	// Name is the deterministic display name of the generated type.
	Name string `json:"name"`
	// Source records how the type was produced: "enum", "random" or
	// "mutant".
	Source string `json:"source"`
	// Dims is the table shape, e.g. "3s2o1r" (empty for mutants, whose
	// labels are not index-encoded).
	Dims string `json:"dims,omitempty"`
	// Readable mirrors types.Readable for the generated type.
	Readable bool `json:"readable"`
	// RecMax/DiscMax are the scanned maximal recording/discerning
	// levels; the AtLimit flags mark scans that still held at the limit.
	RecMax      int  `json:"recMax"`
	RecAtLimit  bool `json:"recAtLimit,omitempty"`
	DiscMax     int  `json:"discMax"`
	DiscAtLimit bool `json:"discAtLimit,omitempty"`
	// Cons and Rcons are the derived bands.
	Cons  Band `json:"cons"`
	Rcons Band `json:"rcons"`
}

func rowFromClassification(c checker.Classification, source, dims string) Row {
	return Row{
		Name:        c.TypeName,
		Source:      source,
		Dims:        dims,
		Readable:    c.Readable,
		RecMax:      c.Recording.Max,
		RecAtLimit:  c.Recording.AtLimit,
		DiscMax:     c.Discerning.Max,
		DiscAtLimit: c.Discerning.AtLimit,
		Cons:        encodeBand(c.ConsLo, c.ConsHi, c.Discerning.Limit),
		Rcons:       encodeBand(c.RconsLo, c.RconsHi, c.Recording.Limit),
	}
}

// levelKey renders the recording/discerning co-occurrence cell of a row,
// e.g. "rec=2,disc=3" or "rec=3+,disc=3+" when a scan hit the limit.
func (r Row) levelKey() string {
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], "rec="...), int64(r.RecMax), 10)
	if r.RecAtLimit {
		b = append(b, '+')
	}
	b = strconv.AppendInt(append(b, ",disc="...), int64(r.DiscMax), 10)
	if r.DiscAtLimit {
		b = append(b, '+')
	}
	return string(b)
}

// ZooEntry is one built-in zoo type's bands at the census limit.
type ZooEntry struct {
	Name     string `json:"name"`
	Readable bool   `json:"readable"`
	Cons     string `json:"cons"`
	Rcons    string `json:"rcons"`
}

// Entry is one gallery witness: a generated type worth looking at, with
// its full transition table so it can be re-examined with rcons/rcserve.
type Entry struct {
	Key    string `json:"key"`
	Name   string `json:"name"`
	Source string `json:"source"`
	Cons   string `json:"cons"`
	Rcons  string `json:"rcons"`
	// Table is the type's types.Custom JSON.
	Table json.RawMessage `json:"table"`
}

// Extremal is the witness gallery.
type Extremal struct {
	// PerRconsBand maps each observed rcons band to the smallest-keyed
	// generated type in it.
	PerRconsBand map[string]Entry `json:"perRconsBand"`
	// Gaps lists generated types whose bands prove cons > rcons
	// (ConsLo > RconsHi), capped at GapCap, sorted by key.
	Gaps []Entry `json:"gaps"`
}

// GapCap bounds the gap gallery.
const GapCap = 8

// Summary is everything in the artifact except the per-type rows — the
// payload rcserve's /v1/atlas endpoint returns.
type Summary struct {
	Version int   `json:"version"`
	Seed    int64 `json:"seed"`
	Limit   int   `json:"limit"`
	// Bounds is the exhaustive-enumeration block (zero when enumeration
	// was skipped); Random and RandomBounds describe the sampling stage;
	// MutantsPerZoo the zoo-mutation stage.
	Bounds        atlas.Bounds `json:"bounds"`
	Random        int          `json:"random"`
	RandomBounds  atlas.Bounds `json:"randomBounds"`
	MutantsPerZoo int          `json:"mutantsPerZoo"`
	// Raw counts enumerated tables before canonical dedup; Generated
	// counts all generated candidates (canonical enumeration + random +
	// mutants) before cross-source dedup; Duplicates of them hit an
	// existing key; Types is the final row count.
	Raw        int `json:"rawEnumerated"`
	Generated  int `json:"generated"`
	Duplicates int `json:"duplicates"`
	Types      int `json:"types"`
	// RconsBands / ConsBands are band histograms over the rows; Levels
	// counts (recording, discerning) level co-occurrences.
	RconsBands map[string]int `json:"rconsBands"`
	ConsBands  map[string]int `json:"consBands"`
	Levels     map[string]int `json:"levels"`
	// Zoo holds the built-in types' bands at the same limit.
	Zoo []ZooEntry `json:"zoo"`
	// NovelRconsBands lists rcons bands some generated type occupies but
	// no zoo type does.
	NovelRconsBands []string `json:"novelRconsBands"`
	Extremal        Extremal `json:"extremal"`
	// Skipped lists dedup keys whose classification exceeded the
	// per-type timeout (empty in any healthy run; a non-empty list also
	// voids the byte-reproducibility guarantee).
	Skipped []string `json:"skipped"`
}

// Artifact is the full census result: the summary plus one row per
// distinct generated type.
type Artifact struct {
	Summary
	Rows map[string]Row `json:"rows"`
}

// Encode renders the artifact as stable, human-diffable JSON (sorted
// keys, trailing newline). Two artifacts with equal contents encode to
// identical bytes.
func (a *Artifact) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("census: encode artifact: %w", err)
	}
	return append(data, '\n'), nil
}

// Save writes the artifact to path.
func (a *Artifact) Save(path string) error {
	data, err := a.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("census: save artifact: %w", err)
	}
	return nil
}

// Load reads an artifact from path, e.g. to resume a census.
func Load(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("census: load artifact: %w", err)
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("census: parse artifact %s: %w", path, err)
	}
	if a.Version != Version {
		return nil, fmt.Errorf("census: artifact %s has version %d, want %d", path, a.Version, Version)
	}
	return &a, nil
}

// Verify checks the structural invariants every healthy artifact
// satisfies; requireNovel additionally demands a generated type in an
// rcons band no zoo type occupies (the census's reason to exist).
func (a *Artifact) Verify(requireNovel bool) error {
	if a.Version != Version {
		return fmt.Errorf("census: version %d, want %d", a.Version, Version)
	}
	if len(a.Rows) == 0 {
		return fmt.Errorf("census: artifact has no rows")
	}
	if a.Types != len(a.Rows) {
		return fmt.Errorf("census: summary says %d types but artifact has %d rows", a.Types, len(a.Rows))
	}
	if len(a.Skipped) > 0 {
		return fmt.Errorf("census: %d types timed out (first: %s)", len(a.Skipped), a.Skipped[0])
	}
	total := 0
	for band, n := range a.RconsBands {
		if n <= 0 {
			return fmt.Errorf("census: empty band %q in histogram", band)
		}
		total += n
	}
	if total != len(a.Rows) {
		return fmt.Errorf("census: band histogram sums to %d, rows are %d", total, len(a.Rows))
	}
	for key, r := range a.Rows {
		if r.Rcons.Hi != UnboundedHi && r.Rcons.Lo > r.Rcons.Hi {
			return fmt.Errorf("census: row %s has inverted rcons band [%d,%d]", key, r.Rcons.Lo, r.Rcons.Hi)
		}
		if r.Rcons.Hi != UnboundedHi && r.Cons.Hi != UnboundedHi && r.Rcons.Hi > r.Cons.Hi {
			return fmt.Errorf("census: row %s violates rcons ≤ cons: rcons hi %d > cons hi %d",
				key, r.Rcons.Hi, r.Cons.Hi)
		}
	}
	if len(a.Zoo) == 0 {
		return fmt.Errorf("census: artifact has no zoo comparison")
	}
	if requireNovel && len(a.NovelRconsBands) == 0 {
		return fmt.Errorf("census: no generated type sits outside the zoo's rcons bands")
	}
	return nil
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
