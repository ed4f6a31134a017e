//go:build !race

package accltl

const raceEnabled = false
