package compile

import (
	"testing"

	"rcons/internal/types"
)

// BenchmarkBuildTable compiles T_5 at n = 5: the reachable-state sweep
// plus interning.
func BenchmarkBuildTable(b *testing.B) {
	t5 := types.NewTn(5)
	for b.Loop() {
		if _, err := Compile(t5, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// applySink keeps BenchmarkApply's responses live.
var applySink uint16

// BenchmarkApply is one compiled protocol step, two flat array reads,
// walking T_5's table through every op in turn.
func BenchmarkApply(b *testing.B) {
	c, err := Compile(types.NewTn(5), 5)
	if err != nil {
		b.Fatal(err)
	}
	nOps := uint16(c.NumOps())
	si, oi := uint16(0), uint16(0)
	for b.Loop() {
		ns, r := c.Apply(si, oi)
		applySink ^= r
		si = ns
		if oi++; oi == nOps {
			oi = 0
		}
	}
}
