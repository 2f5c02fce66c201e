//go:build race

package exec

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
