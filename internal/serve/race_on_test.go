//go:build race

package serve

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions are skipped under it because its instrumentation allocates.
const raceEnabled = true
