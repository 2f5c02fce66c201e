//go:build !race

package exec

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation bounds are skipped under it.
const raceEnabled = false
