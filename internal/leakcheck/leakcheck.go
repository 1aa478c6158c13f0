// Package leakcheck fails a test binary whose goroutines outlive its
// tests. The service packages, which start the long-lived goroutines
// (dedup, cluster, store, logengine), call Main from their TestMain.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle is how long Main waits for goroutines to finish after the
// tests return.
const settle = 2 * time.Second

// Main runs the tests, then waits up to settle for the goroutine count
// to come back to what it was before them. If it does not, Main prints
// every goroutine's stack and exits non-zero, also when the tests
// passed.
func Main(m *testing.M) {
	before := running()
	code := m.Run()
	deadline := time.Now().Add(settle)
	for running() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := running(); n > before {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines outlived the tests, %d ran before them:\n\n%s\n", n, before, buf)
		code = 1
	}
	os.Exit(code)
}

// running is runtime.NumGoroutine less os/signal's watcher, which
// `go test -fuzz` starts (signal.NotifyContext) and never stops.
func running() int {
	buf := make([]byte, 1<<20)
	if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("\nos/signal.loop()")) {
		return runtime.NumGoroutine() - 1
	}
	return runtime.NumGoroutine()
}
