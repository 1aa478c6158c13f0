//go:build race

package logengine

// raceEnabled reports a -race build, whose timings are not the
// engine's.
const raceEnabled = true
