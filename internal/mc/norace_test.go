//go:build !race

package mc

// raceEnabled reports a build with the race detector, which allocates
// on its own account.
const raceEnabled = false
