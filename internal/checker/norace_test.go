//go:build !race

package checker

const raceEnabled = false
