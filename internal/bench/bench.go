// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section V):
//
//	Table I    — cryptographic operation latency vs input size
//	Fig. 5a-d  — relative running time of the four applications
//	             (baseline, initial computation, subsequent computation)
//	Fig. 6     — ResultStore GET/PUT throughput with and without SGX
//
// plus the ablations called out in DESIGN.md. Absolute numbers differ
// from the paper (software enclave simulator vs Xeon E3-1505 v5 with
// real SGX), but the shapes — who wins, by what order of magnitude,
// and where overheads appear — are the reproduction target.
package bench

import (
	"crypto/rand"
	"fmt"
	"sort"
	"time"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/store"
	"speed/internal/telemetry"
)

// registry, when set with SetTelemetry, is threaded into every
// deployment the harness builds, so one registry accumulates phase
// histograms and counters across all experiments of a run (the
// registrations are idempotent and the func-backed counters sum over
// environments).
var registry *telemetry.Registry

// SetTelemetry makes all subsequently created benchmark environments
// report into reg. Pass nil to disable (the default).
func SetTelemetry(reg *telemetry.Registry) { registry = reg }

// env bundles one application + store deployment for measurements.
type env struct {
	appEnc  *enclave.Enclave
	store   *store.Store
	runtime *dedup.Runtime
}

// newEnv builds a fresh deployment. withSGX toggles simulated
// transition/paging costs (true reproduces the paper's SGX machines).
func newEnv(withSGX bool) (*env, error) {
	platform := enclave.NewPlatform(enclave.Config{SimulateCosts: withSGX})
	appEnc, err := platform.Create("bench-app", []byte("bench app code"))
	if err != nil {
		return nil, err
	}
	storeEnc, err := platform.Create("bench-store", []byte("bench store code"))
	if err != nil {
		return nil, err
	}
	st, err := store.New(store.Config{Enclave: storeEnc, Telemetry: registry})
	if err != nil {
		return nil, err
	}
	rt, err := dedup.NewRuntime(dedup.Config{
		Enclave:   appEnc,
		Client:    dedup.NewLocalClient(st, appEnc.Measurement()),
		Logf:      func(string, ...any) {},
		Telemetry: registry,
	})
	if err != nil {
		return nil, err
	}
	return &env{appEnc: appEnc, store: st, runtime: rt}, nil
}

func (e *env) close() {
	_ = e.runtime.Close()
	e.store.Close()
}

// timeIt returns the mean wall-clock duration of fn over trials runs.
func timeIt(trials int, fn func() error) (time.Duration, error) {
	if trials < 1 {
		trials = 1
	}
	var total time.Duration
	for i := 0; i < trials; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(trials), nil
}

// medianTimeIt returns the median wall-clock duration of fn over trials
// runs, robust against one-off outliers (first-touch page faults, GC).
func medianTimeIt(trials int, fn func() error) (time.Duration, error) {
	if trials < 1 {
		trials = 1
	}
	durations := make([]time.Duration, trials)
	for i := range durations {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durations[i] = time.Since(start)
	}
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	return durations[len(durations)/2], nil
}

func randBytes(n int) []byte {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("bench: rand: %v", err))
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
