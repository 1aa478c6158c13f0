//go:build !race

package logengine

const raceEnabled = false
