package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"speed/internal/enclave"
	"speed/internal/store"
	"speed/internal/telemetry"
)

// TestTelemetryConcurrentExecute drives the runtime from many
// goroutines (run under -race in `make check`) and asserts the
// invariants the instrumentation promises: every counted call lands in
// exactly one outcome histogram, every call times its tag phase, and
// sampled traces carry non-negative, chronologically ordered phases
// bounded by the call's total latency.
func TestTelemetryConcurrentExecute(t *testing.T) {
	reg := telemetry.NewRegistry()
	env := newTestEnv(t, func(c *Config) {
		c.Telemetry = reg
		c.TraceSampleRate = 1 // trace every call
	})
	id := env.funcID(t)

	const workers = 8
	const inputs = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < inputs; i++ {
				in := []byte(fmt.Sprintf("input-%d", i))
				if _, _, err := env.runtime.Execute(id, in, func(in []byte) ([]byte, error) {
					return append([]byte("r:"), in...), nil
				}); err != nil {
					t.Errorf("Execute: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// One failing call must land in the error slot and still be counted.
	wantErr := errors.New("boom")
	if _, _, err := env.runtime.Execute(id, []byte("failing"), func([]byte) ([]byte, error) {
		return nil, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("failing Execute = %v, want %v", err, wantErr)
	}

	calls := env.runtime.Stats().Calls
	if want := int64(workers*inputs + 1); calls != want {
		t.Fatalf("Stats.Calls = %d, want %d", calls, want)
	}

	snap := reg.Snapshot()
	var outcomeTotal int64
	for _, h := range snap.HistogramsByFamily("speed_execute_seconds") {
		outcomeTotal += h.Count
	}
	if outcomeTotal != calls {
		t.Errorf("sum of outcome histogram counts = %d, want Stats.Calls = %d", outcomeTotal, calls)
	}
	var tagCount int64 = -1
	for _, h := range snap.HistogramsByFamily("speed_execute_phase_seconds") {
		if strings.Contains(h.Name, `phase="tag"`) {
			tagCount = h.Count
		}
	}
	if tagCount != calls {
		t.Errorf("tag phase count = %d, want Stats.Calls = %d (every call derives a tag)", tagCount, calls)
	}
	if got := snap.Counter(`speed_runtime_calls_total{app="app"}`); got != calls {
		t.Errorf("speed_runtime_calls_total = %d, want %d", got, calls)
	}
	// Satellite: retries surface in the registry via the same Stats
	// snapshot rather than a side channel (zero for the local client).
	if got := snap.Counter(`speed_runtime_retries_total{app="app"}`); got != 0 {
		t.Errorf("speed_runtime_retries_total = %d, want 0", got)
	}

	events := reg.Trace().Events()
	if len(events) == 0 {
		t.Fatal("no trace events despite TraceSampleRate=1")
	}
	for _, ev := range events {
		if ev.TotalNS < 0 {
			t.Fatalf("trace %s: negative total %d", ev.ID, ev.TotalNS)
		}
		prevStart := int64(-1)
		for _, ph := range ev.Phases {
			if ph.StartNS < 0 || ph.DurNS < 0 {
				t.Fatalf("trace %s phase %s: negative timing start=%d dur=%d",
					ev.ID, ph.Name, ph.StartNS, ph.DurNS)
			}
			if ph.StartNS < prevStart {
				t.Fatalf("trace %s phase %s: start %d before previous phase start %d (not chronological)",
					ev.ID, ph.Name, ph.StartNS, prevStart)
			}
			prevStart = ph.StartNS
			if ph.StartNS+ph.DurNS > ev.TotalNS {
				t.Fatalf("trace %s phase %s: start+dur %d exceeds total %d",
					ev.ID, ph.Name, ph.StartNS+ph.DurNS, ev.TotalNS)
			}
		}
	}
}

// TestTelemetryChunkCacheCounters: the chunk-cache counters reach the
// registry from the same Stats snapshot, so /metrics gives the cache's
// hit ratio and shows a cache too small for its working set. A
// consumer's first reassembly fetches every chunk; its second is served
// from its cache. A reader whose enclave tier holds a quarter of the
// result declines the chunks that arrive once it is full, and its host
// tier serves them on the next read, all but one whose entry the host
// changed: that one fails to unseal and is fetched.
func TestTelemetryChunkCacheCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p, st := newChunkStore(t)
	producer := newChunkRuntime(t, p, st, "producer", chunkTestThreshold)
	consumer := newChunkRuntimeWith(t, p, st, "consumer", Config{ChunkThreshold: chunkTestThreshold, Telemetry: reg}, nil)
	small := newChunkRuntimeWith(t, p, st, "small", Config{ChunkThreshold: chunkTestThreshold, Telemetry: reg}, nil)
	small.chunkCache.close()
	small.chunkCache = newChunkCache(small.Enclave(), 32<<10, hostChunkCacheBytes)
	id := chunkFuncID(t, producer)
	want := chunkResult(7, 128<<10)
	for i, rt := range []*Runtime{producer, consumer, consumer, small, small} {
		if i == 4 {
			h := small.chunkCache.host
			h.ring[0].data = bytes.Clone(h.ring[0].data)
			h.ring[0].data[enclave.SealNonceSize] ^= 1
		}
		if _, _, err := rt.Execute(id, []byte("doc"), func([]byte) ([]byte, error) { return want, nil }); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	s, snap := consumer.Stats(), reg.Snapshot()
	if s.ChunksFetched == 0 || s.ChunkCacheHits != s.ChunksFetched {
		t.Fatalf("consumer fetched %d chunks with %d cache hits; want every chunk fetched once, then hit once", s.ChunksFetched, s.ChunkCacheHits)
	}
	if got := snap.Counter(`speed_runtime_chunks_fetched_total{app="consumer"}`); got != s.ChunksFetched {
		t.Errorf("speed_runtime_chunks_fetched_total = %d, want %d", got, s.ChunksFetched)
	}
	if got := snap.Counter(`speed_runtime_chunk_cache_hits_total{app="consumer"}`); got != s.ChunkCacheHits {
		t.Errorf("speed_runtime_chunk_cache_hits_total = %d, want %d", got, s.ChunkCacheHits)
	}
	if s := small.Stats(); s.ChunkCacheRejects == 0 || s.ChunkSpillHits == 0 || s.ChunkSpillFailures != 1 {
		t.Errorf("an enclave tier a quarter the result's size declined %d chunks, its host tier served %d and failed %d; want some, some and 1",
			s.ChunkCacheRejects, s.ChunkSpillHits, s.ChunkSpillFailures)
	}
	for _, rt := range []*Runtime{consumer, small} {
		s := rt.Stats()
		for metric, want := range map[string]int64{
			"speed_runtime_chunk_cache_rejects_total":  s.ChunkCacheRejects,
			"speed_runtime_chunk_spill_hits_total":     s.ChunkSpillHits,
			"speed_runtime_chunk_spill_failures_total": s.ChunkSpillFailures,
		} {
			name := fmt.Sprintf(`%s{app=%q}`, metric, rt.Enclave().Name())
			if got := snap.Counter(name); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
	}
}

// TestTelemetryPrefetchCounters: the prediction counters reach the
// registry from the Stats snapshot. A consumer's first hit has no
// record and needs a second chunk GET (a prediction miss); after its
// chunk cache is emptied, its repeat hit prefetches every chunk.
func TestTelemetryPrefetchCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p, st := newChunkStore(t)
	producer := newChunkRuntime(t, p, st, "producer", chunkTestThreshold)
	consumer := newChunkRuntimeWith(t, p, st, "consumer", Config{ChunkThreshold: chunkTestThreshold, Telemetry: reg}, nil)
	id := chunkFuncID(t, producer)
	want := chunkResult(8, 128<<10)
	for i, rt := range []*Runtime{producer, consumer, consumer} {
		if i == 2 {
			forgetChunks(consumer)
		}
		if _, _, err := rt.Execute(id, []byte("doc"), func([]byte) ([]byte, error) { return want, nil }); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	s, snap := consumer.Stats(), reg.Snapshot()
	if s.PrefetchMisses != 1 || s.ChunksPrefetched == 0 || s.ChunksFetched != 2*s.ChunksPrefetched {
		t.Fatalf("consumer: %d prediction misses, %d of %d fetched chunks prefetched; want 1 and half", s.PrefetchMisses, s.ChunksPrefetched, s.ChunksFetched)
	}
	for name, want := range map[string]int64{
		`speed_runtime_chunks_prefetched_total{app="consumer"}`: s.ChunksPrefetched,
		`speed_runtime_prefetch_misses_total{app="consumer"}`:   s.PrefetchMisses,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestTelemetryDisabledIsInert pins the contract that a runtime built
// without a registry records nothing and allocates no telemetry state.
func TestTelemetryDisabledIsInert(t *testing.T) {
	env := newTestEnv(t, nil)
	if env.runtime.tel != nil {
		t.Fatal("runtime has telemetry state without a registry")
	}
	id := env.funcID(t)
	if _, _, err := env.runtime.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
		return []byte("r"), nil
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
}

// benchEnv builds a runtime for overhead measurement. simulateCosts
// selects the denominator: true is the deployment default every figure
// uses (ECALL/OCALL spin-waits dominate); false strips the simulated
// SGX costs so the instrumentation itself is visible under the
// microscope.
func benchEnv(b testing.TB, reg *telemetry.Registry, simulateCosts bool) *Runtime {
	b.Helper()
	p := enclave.NewPlatform(enclave.Config{SimulateCosts: simulateCosts})
	appEnc, err := p.Create("bench-app", []byte("bench app code"))
	if err != nil {
		b.Fatal(err)
	}
	storeEnc, err := p.Create("bench-store", []byte("bench store code"))
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := NewRuntime(Config{
		Enclave:   appEnc,
		Client:    NewLocalClient(st, appEnc.Measurement()),
		Logf:      func(string, ...any) {},
		Telemetry: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = rt.Close() })
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	return rt
}

// benchmarkExecuteHit measures the Algorithm 2 (subsequent
// computation) path: the store already holds the result, every
// iteration is a GET + verify + decrypt.
func benchmarkExecuteHit(b *testing.B, reg *telemetry.Registry, simulateCosts bool) {
	rt := benchEnv(b, reg, simulateCosts)
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		b.Fatal(err)
	}
	input := []byte("benchmark input")
	fn := func(in []byte) ([]byte, error) { return append([]byte("r:"), in...), nil }
	if _, out, err := rt.Execute(id, input, fn); err != nil || out != OutcomeComputed {
		b.Fatalf("seed Execute = (%v, %v)", out, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := rt.Execute(id, input, fn)
		if err != nil {
			b.Fatal(err)
		}
		if out != OutcomeReused {
			b.Fatalf("outcome = %v, want reused", out)
		}
	}
}

// The overhead gate: instrumented vs uninstrumented hit path under the
// deployment-default simulated SGX costs (the configuration every
// figure is measured in). Compare with
//
//	go test -run xxx -bench BenchmarkExecuteHit ./internal/dedup/
//
// The Raw pair strips the simulated transition costs so the absolute
// instrumentation cost (~0.5µs: eight clock reads plus a handful of
// atomic adds per call) is directly visible.
func BenchmarkExecuteHit(b *testing.B) { benchmarkExecuteHit(b, nil, true) }
func BenchmarkExecuteHitTelemetry(b *testing.B) {
	benchmarkExecuteHit(b, telemetry.NewRegistry(), true)
}
func BenchmarkExecuteHitRaw(b *testing.B) { benchmarkExecuteHit(b, nil, false) }
func BenchmarkExecuteHitRawTelemetry(b *testing.B) {
	benchmarkExecuteHit(b, telemetry.NewRegistry(), false)
}
