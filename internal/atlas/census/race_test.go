//go:build race

package census

// raceEnabled reports a build with the race detector, which allocates
// on its own account.
const raceEnabled = true
