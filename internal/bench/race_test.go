//go:build race

package bench

// raceEnabled reports whether the race detector is on; its
// instrumentation skews wall-clock ratios.
const raceEnabled = true
