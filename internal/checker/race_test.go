//go:build race

package checker

// raceEnabled reports whether the race detector is on; sync.Pool then
// discards items at random, so allocation counts are not meaningful.
const raceEnabled = true
