//go:build !linux

package main

// schedIdle is a no-op where there is no SCHED_IDLE class.
func schedIdle() {}
