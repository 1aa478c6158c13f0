package dedup

import (
	"encoding/hex"
	"time"

	"speed/internal/mle"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// The phases of one trip through the execute pipeline. Each phase maps
// to a step of Algorithm 1/2: tag derivation, the store GET OCALLs
// (the lookup and any manifest chunk fetch), the Fig. 3 verification +
// decryption (chunk verification included), the computation itself,
// result encryption and the store PUT OCALL; coalesce_wait is the time
// a call spent waiting on an identical in-flight computation.
type execPhase int

const (
	phaseTag execPhase = iota
	phaseCoalesceWait
	phaseStoreGet
	phaseVerifyDecrypt
	phaseCompute
	phaseEncrypt
	phaseStorePut
	numPhases
)

var phaseNames = [numPhases]string{
	"tag", "coalesce_wait", "store_get", "verify_decrypt",
	"compute", "encrypt", "store_put",
}

// defaultTraceSampleRate traces one Execute call in every N by
// default; see Config.TraceSampleRate.
const defaultTraceSampleRate = 64

// execSpan accumulates one call's phase timings on the caller's stack.
// A phase may be entered more than once (per batch item, or store_get
// for a manifest's chunk fetch in the middle of verify_decrypt): its
// duration accumulates, and its start stays the first entry, so
// start+duration never runs past the call's end. A nil or zero span is
// off, so the telemetry-disabled path pays one test per phase boundary
// and nothing else. The pipeline holds its span by value: a span behind
// a pointer in the call state would be heap-allocated on every call.
type execSpan struct {
	on         bool
	start      time.Time
	phaseStart [numPhases]time.Duration // first entry
	entered    [numPhases]time.Duration // latest entry
	phaseDur   [numPhases]time.Duration
	seen       uint16 // bitmask of phases that completed
}

// startSpan returns a running span.
func startSpan() execSpan { return execSpan{on: true, start: time.Now()} }

func (s *execSpan) begin(p execPhase) {
	if s != nil && s.on {
		s.entered[p] = time.Since(s.start)
		if s.seen&(1<<uint(p)) == 0 {
			s.phaseStart[p] = s.entered[p]
		}
	}
}

func (s *execSpan) end(p execPhase) {
	if s != nil && s.on {
		s.phaseDur[p] += time.Since(s.start) - s.entered[p]
		s.seen |= 1 << uint(p)
	}
}

// outcome histogram slots: the four Outcome values plus an error slot.
const (
	numOutcomeSlots = 5
	errorSlot       = numOutcomeSlots - 1
)

// rtMetrics is the runtime's pre-registered metric set. All metric
// lookups and label rendering happen once at NewRuntime; the Execute
// path only touches atomics.
type rtMetrics struct {
	reg         *telemetry.Registry
	execSeconds [numOutcomeSlots]*telemetry.Histogram
	phases      [numPhases]*telemetry.Histogram
	batchItems  *telemetry.Histogram
	sampleEvery uint64
	app         string
}

// newRTMetrics wires the runtime into reg. With a nil registry it
// returns nil and the runtime runs uninstrumented.
func newRTMetrics(reg *telemetry.Registry, rt *Runtime, sampleRate int) *rtMetrics {
	if reg == nil {
		return nil
	}
	app := rt.cfg.Enclave.Name()
	appLabel := telemetry.L("app", app)
	m := &rtMetrics{reg: reg, app: app}
	switch {
	case sampleRate < 0:
		m.sampleEvery = 0 // tracing disabled
	case sampleRate == 0:
		m.sampleEvery = defaultTraceSampleRate
	default:
		m.sampleEvery = uint64(sampleRate)
	}
	outcomeLabels := [numOutcomeSlots]string{
		OutcomeComputed - 1:   "computed",
		OutcomeReused - 1:     "reused",
		OutcomeRecomputed - 1: "recomputed",
		OutcomeCoalesced - 1:  "coalesced",
		errorSlot:             "error",
	}
	for i, lbl := range outcomeLabels {
		m.execSeconds[i] = reg.NewHistogram("speed_execute_seconds",
			"end-to-end Execute latency by outcome", appLabel,
			telemetry.L("outcome", lbl))
	}
	for p := execPhase(0); p < numPhases; p++ {
		m.phases[p] = reg.NewHistogram("speed_execute_phase_seconds",
			"Execute latency per phase", appLabel,
			telemetry.L("phase", phaseNames[p]))
	}
	m.batchItems = reg.NewHistogram("speed_runtime_batch_items",
		"items per ExecuteBatch call (bucket values are item counts, not seconds)", appLabel)
	// Counters mirror the Stats snapshot (one source of truth, read on
	// demand); Retries comes from the same snapshot, so the registry no
	// longer needs the retryCounter side channel.
	for _, c := range []struct {
		name, help string
		field      func(Stats) int64
	}{
		{"speed_runtime_calls_total", "Execute invocations", func(s Stats) int64 { return s.Calls }},
		{"speed_runtime_reused_total", "results served from the store", func(s Stats) int64 { return s.Reused }},
		{"speed_runtime_computed_total", "fresh computations", func(s Stats) int64 { return s.Computed }},
		{"speed_runtime_coalesced_total", "calls that shared an in-flight computation", func(s Stats) int64 { return s.Coalesced }},
		{"speed_runtime_verify_failures_total", "stored entries rejected by verification", func(s Stats) int64 { return s.VerifyFailures }},
		{"speed_runtime_put_errors_total", "failed or rejected uploads", func(s Stats) int64 { return s.PutErrors }},
		{"speed_runtime_bytes_reused_total", "plaintext bytes served from the store", func(s Stats) int64 { return s.BytesReused }},
		{"speed_runtime_degraded_calls_total", "calls served compute-only because their GET failed or the store was down", func(s Stats) int64 { return s.Degraded }},
		{"speed_runtime_store_failures_total", "failed store GET and PUT requests", func(s Stats) int64 { return s.StoreFailures }},
		{"speed_runtime_retries_total", "store requests resent after a re-dial", func(s Stats) int64 { return s.Retries }},
		{"speed_runtime_chunks_fetched_total", "manifest chunks fetched from the store", func(s Stats) int64 { return s.ChunksFetched }},
		{"speed_runtime_chunks_prefetched_total", "manifest chunks fetched in the lookup's GET", func(s Stats) int64 { return s.ChunksPrefetched }},
		{"speed_runtime_prefetch_misses_total", "manifest hits that needed a second chunk GET", func(s Stats) int64 { return s.PrefetchMisses }},
		{"speed_runtime_chunk_cache_hits_total", "manifest chunks served from either tier of the chunk cache", func(s Stats) int64 { return s.ChunkCacheHits }},
		{"speed_runtime_chunk_spill_hits_total", "manifest chunks served from the sealed host-memory chunk tier (a share of the cache hits)", func(s Stats) int64 { return s.ChunkSpillHits }},
		{"speed_runtime_chunk_spill_failures_total", "host-memory chunk entries that failed to unseal and were fetched", func(s Stats) int64 { return s.ChunkSpillFailures }},
		{"speed_runtime_chunk_cache_rejects_total", "chunks the in-enclave chunk cache declined to admit", func(s Stats) int64 { return s.ChunkCacheRejects }},
	} {
		field := c.field
		reg.NewCounterFunc(c.name, c.help, func() int64 { return field(rt.Stats()) }, appLabel)
	}
	reg.NewGaugeFunc("speed_runtime_degraded", "1 while the store client reports the store unhealthy and calls are served compute-only", func() float64 {
		if rt.Degraded() {
			return 1
		}
		return 0
	}, appLabel)
	return m
}

// record folds a finished single call's span into the histograms. A
// sampled call's trace ID is attached to its latency bucket as an
// exemplar, so a spike in the histogram links straight to an assembled
// trace in /debug/trace?id=.
func (m *rtMetrics) record(span *execSpan, total time.Duration, outcome Outcome, err error, tc wire.TraceContext) {
	slot := errorSlot
	if err == nil && outcome >= OutcomeComputed && outcome <= OutcomeCoalesced {
		slot = int(outcome) - 1
	}
	if tc.Valid() {
		m.execSeconds[slot].ObserveExemplar(total, tc.TraceIDHex())
	} else {
		m.execSeconds[slot].Observe(total)
	}
	m.observePhases(span)
}

// observePhases records every completed phase of the span.
func (m *rtMetrics) observePhases(span *execSpan) {
	for p := execPhase(0); p < numPhases; p++ {
		if span.seen&(1<<uint(p)) != 0 {
			m.phases[p].Observe(span.phaseDur[p])
		}
	}
}

// startTrace makes the sampling decision for one Execute/ExecuteBatch
// call before any work happens, so a sampled call's context can
// propagate to every store node it touches. It returns the context
// downstream requests carry (Parent set to the root span's ID) and the
// root span ID itself; an unsampled call gets the zero context and
// pays one atomic add and a modulo.
func (rt *Runtime) startTrace() (wire.TraceContext, uint64) {
	m := rt.tel
	if m == nil || m.sampleEvery == 0 || rt.traceN.Add(1)%m.sampleEvery != 0 {
		return wire.TraceContext{}, 0
	}
	root := wire.NewSpanID()
	return wire.TraceContext{ID: wire.NewTraceID(), Parent: root, Sampled: true}, root
}

// recordTrace records a sampled call's root span into the registry's
// trace ring: the TraceID groups it with the spans the router and
// store nodes recorded for the same call, and the SpanID is what their
// ParentID chains lead back to. No-op for unsampled calls.
func (rt *Runtime) recordTrace(name string, id mle.FuncID, tc wire.TraceContext, rootSpan uint64, span *execSpan, outcome Outcome, total time.Duration, err error) {
	m := rt.tel
	if !tc.Valid() {
		return
	}
	ev := telemetry.TraceEvent{
		Time:    time.Now(),
		App:     m.app,
		Name:    name,
		ID:      hex.EncodeToString(id[:4]),
		TotalNS: total.Nanoseconds(),
		TraceID: tc.TraceIDHex(),
		SpanID:  wire.SpanIDHex(rootSpan),
		Node:    m.reg.Node(),
	}
	switch {
	case err != nil:
		ev.Err = err.Error()
	case outcome != 0:
		ev.Outcome = outcome.String()
	}
	for p := execPhase(0); p < numPhases; p++ {
		if span.seen&(1<<uint(p)) != 0 {
			ev.Phases = append(ev.Phases, telemetry.PhaseSpan{
				Name:    phaseNames[p],
				StartNS: span.phaseStart[p].Nanoseconds(),
				DurNS:   span.phaseDur[p].Nanoseconds(),
			})
		}
	}
	m.reg.Trace().Add(ev)
}
