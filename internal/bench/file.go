package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// File is the BENCH_*.json artifact: environment header plus results.
type File struct {
	Schema  string   `json:"schema"`
	Created string   `json:"created"`
	Go      string   `json:"go"`
	Host    string   `json:"host"`
	CPUs    int      `json:"cpus"`
	Mode    string   `json:"mode"` // "full" or "quick"
	Results []Result `json:"results"`
	// Telemetry is a snapshot of the process-wide obs registry taken
	// after the run: the counters the benchmark runners published
	// (mc runs and nodes), keyed by metric name. It
	// records how much work the run actually did, complementing the
	// per-benchmark rates above.
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

// SchemaV1 identifies the current artifact layout.
const SchemaV1 = "rcbench/v1"

// NewFile wraps results in the artifact envelope.
func NewFile(mode string, results []Result) *File {
	return &File{
		Schema:  SchemaV1,
		Created: time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		Host:    runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Mode:    mode,
		Results: results,
	}
}

// WriteJSON writes the artifact with stable indentation (committed to
// git, so diffs should be readable).
func (f *File) WriteJSON(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON loads a BENCH_*.json artifact.
func ReadJSON(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != SchemaV1 {
		return nil, fmt.Errorf("%s: unknown schema %q", path, f.Schema)
	}
	return &f, nil
}

var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// LatestArtifact finds the BENCH_<n>.json with the highest index in dir
// ("" when none exists) plus that index (-1 when none).
func LatestArtifact(dir string) (path string, index int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", -1, err
	}
	index = -1
	for _, e := range entries {
		m := benchFileRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		if n > index {
			index = n
			path = filepath.Join(dir, e.Name())
		}
	}
	return path, index, nil
}

// SortResults orders results by name for stable artifacts.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
}
