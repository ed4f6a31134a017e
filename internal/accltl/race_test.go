//go:build race

package accltl

// raceEnabled reports a race-detector build, where sync.Pool deliberately
// drops pooled items at random and allocation counts stop being meaningful.
const raceEnabled = true
