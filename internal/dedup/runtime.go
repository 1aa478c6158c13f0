package dedup

import (
	"errors"
	"fmt"
	"log"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/chunk"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// Outcome describes how a marked computation was satisfied.
type Outcome int

// Outcomes of Execute.
const (
	// OutcomeComputed means the result was freshly computed (and
	// uploaded): Algorithm 1, the paper's "Init. Comp.".
	OutcomeComputed Outcome = iota + 1
	// OutcomeReused means a stored result was verified, decrypted and
	// reused: Algorithm 2, the paper's "Subsq. Comp.".
	OutcomeReused
	// OutcomeRecomputed means a stored entry existed but failed the
	// Fig. 3 verification (⊥) — e.g. poisoned or corrupted — so the
	// result was recomputed and re-uploaded.
	OutcomeRecomputed
	// OutcomeCoalesced means an identical computation was already in
	// flight in this process and its result was shared, without
	// touching the store at all.
	OutcomeCoalesced
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeComputed:
		return "computed"
	case OutcomeReused:
		return "reused"
	case OutcomeRecomputed:
		return "recomputed"
	case OutcomeCoalesced:
		return "coalesced"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config configures a Runtime.
type Config struct {
	// Enclave is the application enclave the runtime is linked into.
	// Required.
	Enclave *enclave.Enclave
	// Client reaches the encrypted ResultStore. Required.
	Client StoreClient
	// Scheme is the result-encryption scheme; nil means the paper's
	// cross-application RCE design.
	Scheme mle.Scheme
	// Registry records the application's trusted libraries; nil means
	// a fresh empty registry.
	Registry *Registry
	// AsyncPut processes the PUT pipeline (key generation, result
	// encryption, store update) in a separate worker, the optimization
	// suggested in Section V-B. When false (the default, matching the
	// measured "Init. Comp." which includes "the time for secure
	// storing result"), the PUT happens on the caller's path.
	AsyncPut bool
	// PutQueueDepth bounds the async PUT queue; defaults to 64.
	PutQueueDepth int
	// NoCoalesce disables in-flight coalescing. By default, when
	// multiple goroutines concurrently Execute the same computation
	// (same FuncID and input), only the first runs it; the others wait
	// and share its result with OutcomeCoalesced — deduplication
	// within the process, before the store is even consulted.
	NoCoalesce bool
	// BatchParallelism bounds how many missing results one ExecuteBatch
	// call computes concurrently. Zero selects GOMAXPROCS; 1 computes
	// serially.
	BatchParallelism int
	// ChunkThreshold enables content-defined chunked deduplication:
	// results of at least this many bytes are split with a FastCDC
	// chunker, each chunk independently RCE-encrypted and stored under
	// its own content-derived tag, and the call's primary tag holds a
	// small sealed manifest instead of the whole result (see
	// internal/chunk and DESIGN.md "Chunked dedup"). Results below the
	// threshold take the whole-result path unchanged. Zero (the
	// default) disables chunking entirely.
	ChunkThreshold int
	// ChunkCacheBytes bounds the runtime's in-enclave cache of chunk
	// plaintexts, which turns overlapping results into partial
	// transfers: a manifest hit fetches only the chunks the cache
	// misses, and a chunked upload skips chunks known store-resident.
	// Defaults to 16 MiB when chunking is enabled; ignored otherwise.
	ChunkCacheBytes int64
	// DegradeThreshold is the number of consecutive store transport
	// failures after which the runtime opens its circuit breaker: it
	// stops consulting the store entirely (compute-only mode) and
	// probes it in the background until it recovers. Regardless of the
	// threshold, an individual failed GET degrades only its own call —
	// the caller gets a freshly computed result instead of an error.
	// Zero selects the default (5); negative disables degradation, so
	// store failures surface as Execute errors as before.
	DegradeThreshold int
	// ProbeInterval is how often a degraded runtime probes the store in
	// the background to detect recovery; defaults to 500ms.
	ProbeInterval time.Duration
	// Telemetry, when non-nil, registers the runtime's metrics —
	// outcome counters, the end-to-end Execute latency histogram per
	// outcome, and per-phase latency histograms (tag derivation, store
	// GET, verify/decrypt, compute, encrypt, store PUT, coalesce wait)
	// — labelled app=<enclave name>, and samples call traces into the
	// registry's trace ring. Nil disables instrumentation entirely.
	Telemetry *telemetry.Registry
	// TraceSampleRate traces one Execute call in every N into the
	// telemetry registry's trace ring. Zero selects the default (64);
	// negative disables tracing while keeping the metrics. A sampled
	// call's trace context additionally propagates over the wire to
	// every store node it touches (when the client and channel support
	// it), so the per-node span rings assemble into one distributed
	// trace.
	TraceSampleRate int
	// SlowRequestThreshold, when positive, logs one structured line via
	// Logf for any Execute/ExecuteBatch call slower than the threshold,
	// rate-limited to one line per second so a latency storm cannot
	// flood the log. The line carries the trace ID when the call was
	// sampled, linking the log to /debug/trace?id=. Zero disables.
	SlowRequestThreshold time.Duration
	// Logf is the diagnostic logger; defaults to log.Printf.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of runtime activity.
type Stats struct {
	// Calls counts Execute invocations.
	Calls int64
	// Reused counts results served from the store.
	Reused int64
	// Computed counts fresh computations (including recomputations).
	Computed int64
	// Coalesced counts calls that shared an in-flight computation.
	Coalesced int64
	// VerifyFailures counts stored entries rejected by the Fig. 3
	// verification protocol.
	VerifyFailures int64
	// PutErrors counts failed or rejected uploads.
	PutErrors int64
	// BytesReused totals the plaintext result bytes served from the
	// store.
	BytesReused int64
	// Degraded counts calls served compute-only because the store was
	// unreachable or the circuit breaker was open.
	Degraded int64
	// StoreFailures counts store transport failures observed by the
	// runtime (GET/PUT errors other than explicit rejections).
	StoreFailures int64
	// Retries counts request retries performed by the store client
	// (populated when the client exposes a retry counter, e.g.
	// RemoteClient).
	Retries int64
	// ChunkedPuts counts results uploaded chunk-wise (manifest plus
	// content chunks) rather than as one sealed blob.
	ChunkedPuts int64
	// ManifestReuses counts hits served by reassembling a chunk
	// manifest (a subset of Reused).
	ManifestReuses int64
	// ChunksFetched counts sealed chunks fetched from the store during
	// manifest reassembly.
	ChunksFetched int64
	// ChunkCacheHits counts manifest chunks served from the local chunk
	// cache without touching the store.
	ChunkCacheHits int64
	// ChunksSkipped counts chunk uploads skipped because the chunk was
	// already store-resident (local-cache knowledge or HAS_BATCH probe).
	ChunksSkipped int64
}

// retryCounter is implemented by store clients that retry transient
// failures internally (RemoteClient); the runtime surfaces the count
// through Stats.Retries.
type retryCounter interface {
	Retries() int64
}

// Runtime is the secure deduplication runtime. It is safe for
// concurrent use by multiple goroutines of the same application.
type Runtime struct {
	cfg Config

	mu    sync.Mutex
	stats Stats

	flightMu sync.Mutex
	inflight map[mle.Tag]*flight

	// Circuit breaker over the store path (Section III-D rate limiting
	// and the networked deployment of Section IV-B assume the store can
	// fail): after DegradeThreshold consecutive transport failures the
	// breaker opens and Execute serves compute-only until a background
	// probe sees the store healthy again.
	breakerMu   sync.Mutex
	consecFails int
	brkOpen     bool
	probing     bool
	probeWG     sync.WaitGroup

	putCh  chan putJob
	stop   chan struct{}
	done   chan struct{}
	closed bool

	// tel is nil when Config.Telemetry was nil; every instrumentation
	// site is guarded on it, so the uninstrumented path costs one
	// pointer test.
	tel    *rtMetrics
	traceN atomic.Uint64

	// slowLogLast is the UnixNano of the last slow-request line, the
	// rate limiter for Config.SlowRequestThreshold.
	slowLogLast atomic.Int64

	// chunker and chunkCache are non-nil iff Config.ChunkThreshold > 0;
	// every chunked-dedup site is guarded on chunker, so a runtime
	// without chunking pays one nil test.
	chunker    *chunk.Chunker
	chunkCache *chunkLRU
	// hasUnsupported latches after the client reports
	// ErrHasBatchUnsupported once, so an old store is probed at most
	// one time per runtime.
	hasUnsupported atomic.Bool
}

// flight is one in-progress computation that concurrent identical
// calls can join.
type flight struct {
	done    chan struct{}
	result  []byte
	outcome Outcome
	err     error
}

type putJob struct {
	id      mle.FuncID
	input   []byte
	result  []byte
	tag     mle.Tag
	replace bool
	// tc keeps a sampled caller's trace context attached to its async
	// upload, so the PUT leg still lands in the same distributed trace.
	tc wire.TraceContext
}

// NewRuntime constructs a Runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.Enclave == nil {
		return nil, errors.New("dedup: Config.Enclave is required")
	}
	if cfg.Client == nil {
		return nil, errors.New("dedup: Config.Client is required")
	}
	if cfg.Scheme == nil {
		cfg.Scheme = &mle.RCE{}
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.PutQueueDepth <= 0 {
		cfg.PutQueueDepth = 64
	}
	if cfg.BatchParallelism <= 0 {
		cfg.BatchParallelism = goruntime.GOMAXPROCS(0)
	}
	if cfg.DegradeThreshold == 0 {
		cfg.DegradeThreshold = 5
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.ChunkThreshold > 0 && cfg.ChunkCacheBytes <= 0 {
		cfg.ChunkCacheBytes = defaultChunkCacheBytes
	}
	rt := &Runtime{
		cfg:      cfg,
		inflight: make(map[mle.Tag]*flight),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.ChunkThreshold > 0 {
		ck, err := chunk.NewChunker(chunk.Config{})
		if err != nil {
			return nil, fmt.Errorf("dedup: chunker: %w", err)
		}
		rt.chunker = ck
		rt.chunkCache = newChunkLRU(cfg.Enclave, cfg.ChunkCacheBytes)
	}
	rt.tel = newRTMetrics(cfg.Telemetry, rt, cfg.TraceSampleRate)
	if cfg.AsyncPut {
		rt.putCh = make(chan putJob, cfg.PutQueueDepth)
		go rt.putWorker()
	} else {
		close(rt.done)
	}
	return rt, nil
}

// Registry returns the runtime's trusted-library registry.
func (rt *Runtime) Registry() *Registry { return rt.cfg.Registry }

// Enclave returns the application enclave.
func (rt *Runtime) Enclave() *enclave.Enclave { return rt.cfg.Enclave }

// Stats returns a snapshot of the runtime's counters. The client's
// retry counter is read while the stats lock is still held, so Retries
// is taken at the same instant as the rest of the snapshot: a call
// whose retries have been counted cannot yet have bumped StoreFailures
// without the snapshot seeing both. (Retries itself is an atomic load
// from the client, so no lock ordering is introduced.)
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	s := rt.stats
	if rc, ok := rt.cfg.Client.(retryCounter); ok {
		s.Retries = rc.Retries()
	}
	rt.mu.Unlock()
	return s
}

// Degraded reports whether the circuit breaker is currently open, i.e.
// the runtime is serving compute-only and probing the store in the
// background.
func (rt *Runtime) Degraded() bool {
	rt.breakerMu.Lock()
	defer rt.breakerMu.Unlock()
	return rt.brkOpen
}

// degradeEnabled reports whether store failures fall back to
// compute-only instead of failing the call.
func (rt *Runtime) degradeEnabled() bool { return rt.cfg.DegradeThreshold > 0 }

// noteStoreFailure records one store transport failure and opens the
// breaker when the threshold is reached.
func (rt *Runtime) noteStoreFailure(err error) {
	rt.mu.Lock()
	rt.stats.StoreFailures++
	rt.mu.Unlock()
	rt.breakerMu.Lock()
	rt.consecFails++
	if !rt.brkOpen && rt.consecFails >= rt.cfg.DegradeThreshold {
		rt.brkOpen = true
		if !rt.probing {
			rt.probing = true
			rt.probeWG.Add(1)
			go rt.probeLoop()
		}
		rt.cfg.Logf("speed: %d consecutive store failures (last: %v); degrading to compute-only", rt.consecFails, err)
	}
	rt.breakerMu.Unlock()
}

// noteStoreSuccess resets the consecutive-failure counter after any
// successful store exchange.
func (rt *Runtime) noteStoreSuccess() {
	rt.breakerMu.Lock()
	rt.consecFails = 0
	rt.breakerMu.Unlock()
}

// probeLoop periodically pings the store until it answers again, then
// closes the breaker so deduplication resumes. Ping performs a full
// request round trip without any dictionary operation, so a degraded
// runtime probing every ProbeInterval never fabricates GET traffic.
func (rt *Runtime) probeLoop() {
	defer rt.probeWG.Done()
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			if err := rt.cfg.Client.Ping(); err == nil {
				rt.breakerMu.Lock()
				rt.brkOpen = false
				rt.consecFails = 0
				rt.probing = false
				rt.breakerMu.Unlock()
				rt.cfg.Logf("speed: store recovered; deduplication re-enabled")
				return
			}
		}
	}
}

// Close drains the async PUT worker (if any), stops the recovery
// prober, and closes the store client. The runtime must not be used
// afterwards.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.stop)
	rt.probeWG.Wait()
	<-rt.done
	return rt.cfg.Client.Close()
}

// Resolve derives the FuncID for a described function via the
// registry.
func (rt *Runtime) Resolve(desc FuncDesc) (mle.FuncID, error) {
	return rt.cfg.Registry.Resolve(desc)
}

// Execute runs the marked computation func(input) with deduplication:
// Algorithm 1 on a miss, Algorithm 2 plus the Fig. 3 verification on a
// hit. compute must be the deterministic function the FuncID
// identifies.
func (rt *Runtime) Execute(id mle.FuncID, input []byte, compute func([]byte) ([]byte, error)) ([]byte, Outcome, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, 0, errors.New("dedup: runtime closed")
	}
	rt.stats.Calls++
	rt.mu.Unlock()

	var (
		result  []byte
		outcome Outcome
		span    *execSpan
	)
	// The sampling decision happens before any work, so a sampled call's
	// trace context can ride to every store node it touches.
	tc, rootSpan := rt.startTrace()
	if rt.tel != nil || rt.cfg.SlowRequestThreshold > 0 {
		span = &execSpan{start: time.Now()}
	}
	err := rt.cfg.Enclave.ECall(func() error {
		// Algorithm 1/2 line 1: derive the tag inside the enclave.
		span.begin(phaseTag)
		tag := mle.ComputeTag(id, input)
		span.end(phaseTag)

		run := func() error { return rt.executeTagged(id, input, tag, tc, compute, span, &result, &outcome) }

		// In-process coalescing: if the identical computation is
		// already in flight, wait for it and share its result instead
		// of racing it to the store.
		if rt.cfg.NoCoalesce {
			return run()
		}
		rt.flightMu.Lock()
		if f, ok := rt.inflight[tag]; ok {
			rt.flightMu.Unlock()
			span.begin(phaseCoalesceWait)
			<-f.done
			span.end(phaseCoalesceWait)
			if f.err != nil {
				return f.err
			}
			result = append([]byte(nil), f.result...)
			outcome = OutcomeCoalesced
			rt.mu.Lock()
			rt.stats.Coalesced++
			rt.stats.BytesReused += int64(len(result))
			rt.mu.Unlock()
			return nil
		}
		f := &flight{done: make(chan struct{})}
		rt.inflight[tag] = f
		rt.flightMu.Unlock()

		// The flight must be unregistered and its waiters unblocked no
		// matter how run() exits. A compute panic in particular must
		// not leave the entry registered with f.done never closing, or
		// every later identical call would block forever; the panic
		// itself still propagates to the owner's caller.
		completed := false
		defer func() {
			if !completed {
				f.err = fmt.Errorf("dedup: in-flight computation for tag %x... panicked", tag[:4])
			}
			rt.flightMu.Lock()
			delete(rt.inflight, tag)
			rt.flightMu.Unlock()
			close(f.done)
		}()
		ferr := run()
		if ferr == nil {
			// Publish a private copy: the owner's caller owns `result`
			// and may mutate it as soon as Execute returns, while late
			// waiters are still copying out of the flight.
			f.result = append([]byte(nil), result...)
		}
		f.outcome, f.err = outcome, ferr
		completed = true
		return ferr
	})
	if span != nil {
		total := time.Since(span.start)
		if rt.tel != nil {
			total = rt.tel.record(span, outcome, err, tc)
			rt.recordTrace("execute", id, tc, rootSpan, span, outcome, total, err)
		}
		rt.maybeSlowLog("execute", id, tc, total, outcome, err)
	}
	if err != nil {
		return nil, 0, err
	}
	return result, outcome, nil
}

// executeTagged runs the store lookup / verify / compute / upload path
// for an already-derived tag, writing the result and outcome through
// the provided pointers. It runs inside the application enclave.
func (rt *Runtime) executeTagged(id mle.FuncID, input []byte, tag mle.Tag, tc wire.TraceContext, compute func([]byte) ([]byte, error), span *execSpan, resultOut *[]byte, outcomeOut *Outcome) error {
	// Graceful degradation: with the breaker open the store is known
	// to be down, so skip GET/PUT entirely and serve compute-only —
	// deduplication is an accelerator, not a correctness dependency.
	if rt.degradeEnabled() && rt.Degraded() {
		return rt.computeOnly(input, compute, span, resultOut, outcomeOut)
	}

	// Line 2: query the store via an OCALL (the runtime's customized
	// OCALL wrapping request and networking logic).
	var got []wire.GetResult
	span.begin(phaseStoreGet)
	err := rt.cfg.Enclave.OCall(func() error {
		var gerr error
		got, gerr = rt.clientGet(tc, []mle.Tag{tag})
		return gerr
	})
	span.end(phaseStoreGet)
	if err != nil {
		if !rt.degradeEnabled() {
			return fmt.Errorf("query store: %w", err)
		}
		// The store is unreachable or stalled: this call degrades to a
		// plain computation instead of failing, and the failure feeds
		// the circuit breaker.
		rt.noteStoreFailure(err)
		rt.cfg.Logf("speed: store get failed, serving compute-only: %v", err)
		return rt.computeOnly(input, compute, span, resultOut, outcomeOut)
	}
	rt.noteStoreSuccess()

	hadPoisonedEntry := false
	if got[0].Found {
		res, ok, verr := rt.verifyHit(id, input, tag, tc, got[0].Sealed, span)
		if verr != nil {
			return verr
		}
		if ok {
			*resultOut = res
			*outcomeOut = OutcomeReused
			return nil
		}
		hadPoisonedEntry = true
	}

	// Algorithm 1 line 4: compute the result inside the enclave.
	span.begin(phaseCompute)
	res, cerr := compute(input)
	span.end(phaseCompute)
	if cerr != nil {
		return cerr
	}
	*resultOut = res
	if hadPoisonedEntry {
		*outcomeOut = OutcomeRecomputed
	} else {
		*outcomeOut = OutcomeComputed
	}
	rt.mu.Lock()
	rt.stats.Computed++
	rt.mu.Unlock()

	// Algorithm 1 lines 5-10: protect and upload the result. A
	// recomputation replaces the stored entry that failed
	// verification, so a poisoned entry cannot permanently disable
	// reuse for its tag.
	replace := hadPoisonedEntry
	if rt.cfg.AsyncPut {
		rt.enqueuePut(putJob{id: id, input: input, result: res, tag: tag, replace: replace, tc: tc})
		return nil
	}
	if perr := rt.sealAndPut(id, input, res, tag, replace, tc, span); perr != nil {
		// A failed upload only loses future reuse; the caller still
		// gets its freshly computed result.
		rt.notePutError(perr)
	}
	return nil
}

// verifyHit is the hit-verification ladder every pipeline takes for a
// found entry: Algorithm 2 lines 4-6 plus the Fig. 3 verification,
// then — with chunking enabled, where the entry may be a sealed
// manifest rather than a whole result — reassembly from chunks before
// condemning it. ok reports a verified result, counted as reused. Not
// ok with a nil error is ⊥: the stored entry is poisoned/corrupted or
// belongs to a computation we cannot perform; it is counted as a
// verify failure and the caller recomputes and replaces it. span, when
// non-nil, times the whole-result decrypt.
func (rt *Runtime) verifyHit(id mle.FuncID, input []byte, tag mle.Tag, tc wire.TraceContext, sealed mle.Sealed, span *execSpan) ([]byte, bool, error) {
	span.begin(phaseVerifyDecrypt)
	res, err := rt.cfg.Scheme.Decrypt(id, input, sealed)
	span.end(phaseVerifyDecrypt)
	if err != nil && !errors.Is(err, mle.ErrAuthFailed) {
		return nil, false, fmt.Errorf("decrypt result: %w", err)
	}
	var manifests int64
	if err != nil && rt.chunker != nil {
		res, err = rt.manifestReuse(id, input, tc, sealed)
		if err == nil {
			manifests = 1
		} else if !errors.Is(err, errNoManifest) {
			// The manifest was authentic but its chunks were not
			// servable (missing, tampered, digest mismatch): say so
			// loudly, then recompute and replace.
			rt.cfg.Logf("speed: chunked reassembly for tag %x... failed: %v; recomputing", tag[:4], err)
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err != nil {
		rt.stats.VerifyFailures++
		return nil, false, nil
	}
	rt.stats.Reused++
	rt.stats.ManifestReuses += manifests
	rt.stats.BytesReused += int64(len(res))
	return res, true, nil
}

// computeOnly runs the computation without touching the store, used
// while the store is unreachable or the breaker is open. The result is
// correct either way; only reuse is lost.
func (rt *Runtime) computeOnly(input []byte, compute func([]byte) ([]byte, error), span *execSpan, resultOut *[]byte, outcomeOut *Outcome) error {
	span.begin(phaseCompute)
	res, cerr := compute(input)
	span.end(phaseCompute)
	if cerr != nil {
		return cerr
	}
	*resultOut = res
	*outcomeOut = OutcomeComputed
	rt.mu.Lock()
	rt.stats.Computed++
	rt.stats.Degraded++
	rt.mu.Unlock()
	return nil
}

// sealAndPut encrypts the result (RCE: random key, challenge, wrap) and
// uploads (t, r, [k], [res]) via an OCALL. Results at or above the
// chunk threshold go chunk-wise instead (manifest at the primary tag,
// content chunks under their own tags); a result that would overflow
// one manifest falls back to the whole-result path.
func (rt *Runtime) sealAndPut(id mle.FuncID, input, result []byte, tag mle.Tag, replace bool, tc wire.TraceContext, span *execSpan) error {
	if rt.chunker != nil && len(result) >= rt.cfg.ChunkThreshold {
		err := rt.chunkedPut(id, input, result, tag, replace, tc, span)
		if !errors.Is(err, errTooManyChunks) {
			return err
		}
	}
	span.begin(phaseEncrypt)
	sealed, err := rt.cfg.Scheme.Encrypt(id, input, result)
	span.end(phaseEncrypt)
	if err != nil {
		return fmt.Errorf("encrypt result: %w", err)
	}
	span.begin(phaseStorePut)
	err = rt.cfg.Enclave.OCall(func() error {
		return rt.clientPutOne(tc, wire.PutItem{Tag: tag, Sealed: sealed, Replace: replace})
	})
	span.end(phaseStorePut)
	return err
}

// clientGet and clientPut are the runtime's only GET and PUT calls on
// the store client; they hold it to its positional contract. A sampled
// tc reaches every store node that serves the request, which records
// its spans under the caller's trace ID.
func (rt *Runtime) clientGet(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	res, err := rt.cfg.Client.Get(tc, tags)
	if err != nil {
		return nil, err
	}
	if len(res) != len(tags) {
		return nil, fmt.Errorf("dedup: get returned %d results for %d tags", len(res), len(tags))
	}
	return res, nil
}

func (rt *Runtime) clientPut(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	res, err := rt.cfg.Client.Put(tc, items)
	if err != nil {
		return nil, err
	}
	if len(res) != len(items) {
		return nil, fmt.Errorf("dedup: put returned %d results for %d items", len(res), len(items))
	}
	return res, nil
}

// clientPutOne uploads a single item, surfacing the store's rejection
// as ErrPutRejected.
func (rt *Runtime) clientPutOne(tc wire.TraceContext, item wire.PutItem) error {
	res, err := rt.clientPut(tc, []wire.PutItem{item})
	if err != nil {
		return err
	}
	if !res[0].OK {
		return fmt.Errorf("%w: %s", ErrPutRejected, res[0].Err)
	}
	return nil
}

func (rt *Runtime) enqueuePut(job putJob) {
	select {
	case rt.putCh <- job:
	default:
		// Queue full: drop the upload rather than stall the caller.
		rt.notePutError(errors.New("dedup: put queue full"))
	}
}

func (rt *Runtime) putWorker() {
	defer close(rt.done)
	for {
		select {
		case job := <-rt.putCh:
			rt.runPutJob(job)
		case <-rt.stop:
			// Drain what is already queued, then exit.
			for {
				select {
				case job := <-rt.putCh:
					rt.runPutJob(job)
				default:
					return
				}
			}
		}
	}
}

func (rt *Runtime) runPutJob(job putJob) {
	// The async PUT pipeline gets its own span so the encrypt and
	// store_put phases are still measured (they just no longer sit on
	// the caller's path, which is the point of AsyncPut).
	var span *execSpan
	if rt.tel != nil {
		span = &execSpan{start: time.Now()}
	}
	err := rt.cfg.Enclave.ECall(func() error {
		return rt.sealAndPut(job.id, job.input, job.result, job.tag, job.replace, job.tc, span)
	})
	if span != nil {
		rt.tel.observePhases(span)
	}
	if err != nil {
		rt.notePutError(err)
	}
}

func (rt *Runtime) notePutError(err error) {
	rt.mu.Lock()
	rt.stats.PutErrors++
	rt.mu.Unlock()
	// PUT outcomes feed the breaker too: an explicit rejection proves
	// the store is alive, while a transport failure counts against it.
	if rt.degradeEnabled() {
		switch {
		case errors.Is(err, ErrPutRejected):
			rt.noteStoreSuccess()
		case isTransient(err):
			rt.noteStoreFailure(err)
		}
	}
	rt.cfg.Logf("speed: put failed: %v", err)
}
