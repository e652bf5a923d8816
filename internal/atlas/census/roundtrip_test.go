package census

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rcons/internal/atlas"
	"rcons/internal/checker"
	"rcons/internal/engine"
	"rcons/internal/spec"
	"rcons/internal/types"
)

var updateGoldens = flag.Bool("update", false, "rewrite the zoo JSON goldens under testdata/zoo")

// goldenN freezes the process count at which zoo types are tabulated
// (spec.OpsForN types get their n=3 alphabet) and the limit the
// round-trip classifications scan to.
const goldenN = 3

// goldenFileName maps a zoo type name to a filesystem-safe golden path.
func goldenFileName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return filepath.Join("testdata", "zoo", b.String()+".json")
}

// exportZoo tabulates every exportable zoo type as indented, key-sorted
// (and therefore byte-stable) Custom JSON.
func exportZoo(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, zt := range types.Zoo() {
		c, err := atlas.Tabulate(zt, goldenN, 2048)
		if err != nil {
			// read-only has no update operations; everything else must export.
			if strings.Contains(err.Error(), "no operations") {
				continue
			}
			t.Fatalf("%s: %v", zt.Name(), err)
		}
		data, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out[zt.Name()] = append(data, '\n')
	}
	return out
}

// TestZooGoldenExports: the tabulated JSON export of every zoo type is
// byte-identical to the committed golden (regenerate with -update), and
// the number of exports is pinned so new zoo members must add goldens.
func TestZooGoldenExports(t *testing.T) {
	exports := exportZoo(t)
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Join("testdata", "zoo"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range exports {
			if err := os.WriteFile(goldenFileName(name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range exports {
		want, err := os.ReadFile(goldenFileName(name))
		if err != nil {
			t.Fatalf("%s: missing golden (run `go test ./internal/atlas/census -run TestZooGolden -update`): %v", name, err)
		}
		if string(want) != string(data) {
			t.Errorf("%s: export differs from committed golden %s (rerun with -update if intended)",
				name, goldenFileName(name))
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "zoo"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(exports) {
		t.Errorf("testdata/zoo has %d goldens but the zoo exports %d types", len(entries), len(exports))
	}
}

// TestZooRoundTripDifferential: for every committed golden, re-importing
// the JSON yields a type whose Classification is bit-identical to the
// in-memory export's and whose canonical fingerprint matches — the JSON
// codec loses nothing the checker can see.
func TestZooRoundTripDifferential(t *testing.T) {
	exports := exportZoo(t)
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	for name, data := range exports {
		reimported, err := types.NewCustomFromJSON(data)
		if err != nil {
			t.Fatalf("%s: golden does not re-import: %v", name, err)
		}
		original, err := atlas.Tabulate(mustZoo(t, name), goldenN, 2048)
		if err != nil {
			t.Fatal(err)
		}

		c1, err := checker.Classify(original, goldenN)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c2, err := checker.Classify(reimported, goldenN)
		if err != nil {
			t.Fatalf("%s reimported: %v", name, err)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: classification changed through JSON:\nexport   %+v\nreimport %+v", name, c1, c2)
		}

		// The engine agrees, and the canonical fingerprints (when the
		// type is canonicalizable at all) are identical.
		e2, err := eng.Classify(ctx, reimported, goldenN)
		if err != nil {
			t.Fatalf("%s: engine: %v", name, err)
		}
		if !reflect.DeepEqual(c1, e2) {
			t.Errorf("%s: engine classification differs from sequential:\n%+v\nvs\n%+v", name, c1, e2)
		}
		fp1, ok1 := engine.CanonicalFingerprint(original, goldenN)
		fp2, ok2 := engine.CanonicalFingerprint(reimported, goldenN)
		if ok1 != ok2 || fp1 != fp2 {
			t.Errorf("%s: canonical fingerprint changed through JSON: (%s,%v) vs (%s,%v)",
				name, fp1, ok1, fp2, ok2)
		}
	}
}

// mustZoo resolves a zoo type by its display name.
func mustZoo(t *testing.T, name string) spec.Type {
	t.Helper()
	for _, zt := range types.Zoo() {
		if zt.Name() == name {
			return zt
		}
	}
	t.Fatalf("no zoo type named %q", name)
	return nil
}
