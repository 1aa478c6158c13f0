package dedup

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

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
	// ChunkThreshold enables content-defined chunked deduplication:
	// results of at least this many bytes are split with a FastCDC
	// chunker, each chunk independently RCE-encrypted and stored under
	// its own content-derived tag, and the call's primary tag holds a
	// small sealed manifest instead of the whole result (see
	// internal/chunk and DESIGN.md "Chunked dedup"). Results below the
	// threshold take the whole-result path unchanged. Zero (the
	// default) disables chunking entirely.
	ChunkThreshold int
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
	// Unchanged counts the reused results served from the runtime's
	// record of sealed triples: the store answered that the version the
	// GET named is current, and sent no triple (a subset of Reused).
	Unchanged int64
	// BytesReused totals the plaintext result bytes served from the
	// store.
	BytesReused int64
	// Degraded counts calls served compute-only because their GET
	// failed or the store client reported the store unhealthy.
	Degraded int64
	// StoreFailures counts failed store requests observed by the
	// runtime: GET and PUT errors, not per-item rejections.
	StoreFailures int64
	// Retries counts requests the store client resent on a fresh
	// connection after the old one failed (populated when the client
	// exposes the counter, e.g. RemoteClient and cluster.Client).
	Retries int64
	// ChunkedPuts counts results uploaded chunk-wise (manifest plus
	// content chunks) rather than as one sealed blob.
	ChunkedPuts int64
	// ManifestReuses counts hits served by reassembling a chunk
	// manifest (a subset of Reused).
	ManifestReuses int64
	// ChunksFetched counts sealed chunks fetched from the store for
	// manifest reassembly, whether or not they then verified.
	ChunksFetched int64
	// ChunksPrefetched counts the fetched chunks that rode the lookup's
	// GET, predicted from the manifest the runtime last saw.
	ChunksPrefetched int64
	// PrefetchMisses counts manifest hits that still needed a second
	// chunk GET.
	PrefetchMisses int64
	// ChunkCacheHits counts manifest chunks either tier of the local
	// chunk cache served without touching the store.
	ChunkCacheHits int64
	// ChunkSpillHits counts those the sealed host tier served,
	// ChunkSpillFailures its entries dropped for not unsealing to theirs.
	ChunkSpillHits, ChunkSpillFailures int64
	// ChunkCacheRejects counts fetched or produced chunks the chunk
	// cache declined to admit because they were referenced no more
	// often than the entry they would evict.
	ChunkCacheRejects int64
	// ChunksSkipped counts chunk uploads skipped: the local chunk cache
	// knew the chunk store-resident, or it repeats one sent. It counts
	// only what this runtime's cache knows; it counted the store's
	// answers to an existence probe too while the protocol had one, so
	// values from before protocol version 5 do not compare with these.
	ChunksSkipped int64
}

// retryCounter is implemented by store clients that resend requests
// after a re-dial (RemoteClient, cluster.Client); the runtime surfaces
// the count through Stats.Retries.
type retryCounter interface {
	Retries() int64
}

// Runtime is the secure deduplication runtime. It is safe for
// concurrent use by multiple goroutines of the same application.
type Runtime struct {
	cfg      Config
	registry *Registry

	mu    sync.Mutex
	stats Stats

	flightMu sync.Mutex
	inflight map[mle.Tag]*flight

	closed bool

	// tel is nil when Config.Telemetry was nil; every instrumentation
	// site is guarded on it, so the uninstrumented path costs one
	// pointer test.
	tel    *rtMetrics
	traceN atomic.Uint64

	// record holds the last verified triple of each tag, chunking or not.
	record *tripleRecord

	// chunker and chunkCache are non-nil iff Config.ChunkThreshold > 0;
	// every chunked-dedup site is guarded on chunker, so a runtime
	// without chunking pays one nil test.
	chunker    *chunk.Chunker
	chunkCache *chunkCache
}

// flight is one in-progress computation that concurrent identical
// calls can join.
type flight struct {
	done   chan struct{}
	result []byte
	err    error
	// joiners counts the calls waiting on done; guarded by
	// Runtime.flightMu while the flight is registered.
	joiners int
}

// putJob is one freshly computed result awaiting the upload stage; the
// function identity and trace context are its call's.
type putJob struct {
	input   []byte
	result  []byte
	tag     mle.Tag
	replace bool
}

// rce is the runtime's one result-encryption scheme, the paper's
// cross-application RCE (Section III-C). It holds no state.
var rce mle.RCE

// NewRuntime constructs a Runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.Enclave == nil {
		return nil, errors.New("dedup: Config.Enclave is required")
	}
	if cfg.Client == nil {
		return nil, errors.New("dedup: Config.Client is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	rt := &Runtime{
		cfg:      cfg,
		registry: NewRegistry(),
		inflight: make(map[mle.Tag]*flight),
		record:   &tripleRecord{enc: cfg.Enclave},
	}
	if cfg.ChunkThreshold > 0 {
		ck, err := chunk.NewChunker(chunk.Config{})
		if err != nil {
			return nil, fmt.Errorf("dedup: chunker: %w", err)
		}
		rt.chunker = ck
		rt.chunkCache = newChunkCache(cfg.Enclave, defaultChunkCacheBytes, hostChunkCacheBytes)
	}
	rt.tel = newRTMetrics(cfg.Telemetry, rt, cfg.TraceSampleRate)
	return rt, nil
}

// Registry returns the runtime's trusted-library registry.
func (rt *Runtime) Registry() *Registry { return rt.registry }

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
	if rt.chunkCache != nil {
		s.ChunkCacheRejects = rt.chunkCache.rejects.Load()
		s.ChunkSpillHits = rt.chunkCache.spillHits.Load()
		s.ChunkSpillFailures = rt.chunkCache.spillFailures.Load()
	}
	rt.mu.Unlock()
	return s
}

// Degraded reports whether the runtime is serving compute-only because
// its store client reports the store unhealthy. The client keeps the
// only health state (DESIGN.md "Store failure handling"); this is one
// read of it.
func (rt *Runtime) Degraded() bool { return !rt.cfg.Client.Healthy() }

// Close marks the runtime closed, so later calls fail, releases the
// chunk cache's enclave charge and closes the store client, which stops
// its prober. Every call sent its PUTs before it returned, so Close has
// no upload to wait for.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	rt.mu.Unlock()
	if rt.chunkCache != nil {
		rt.chunkCache.close()
	}
	return rt.cfg.Client.Close()
}

// Resolve derives the FuncID for a described function via the
// registry.
func (rt *Runtime) Resolve(desc FuncDesc) (mle.FuncID, error) {
	return rt.registry.Resolve(desc)
}

// storeGetFailed books a failure on the GET side — the lookup, or a
// chunk fetch mid-reassembly. The items it hit degrade to a plain
// computation with no upload: deduplication is an accelerator, not a
// correctness dependency.
func (rt *Runtime) storeGetFailed(err error) {
	rt.noteStoreFailure()
	rt.cfg.Logf("speed: store get failed, serving compute-only: %v", err)
}

// noteStoreFailure counts one failed store request.
func (rt *Runtime) noteStoreFailure() {
	rt.mu.Lock()
	rt.stats.StoreFailures++
	rt.mu.Unlock()
}

// seal is the enclave half of the PUT stage (Algorithm 1 lines 5-9),
// run inside the call's one ECALL on its fresh results. Results at or
// above the chunk threshold are sealed chunk-wise (one that would
// overflow a manifest falls back to whole); the rest are sealed whole
// (RCE: random key, challenge, wrap) for one batched PUT. It leaves the
// sends, which carry ciphertext only, in c.sends for send to run after
// the ECALL and before the call returns. A failed upload only loses
// future reuse — the caller already has its result — so failures are
// booked, not returned.
func (c *call) seal(jobs []putJob) {
	rt := c.rt
	var whole []wire.PutItem
	for _, job := range jobs {
		if rt.chunker != nil && len(job.result) >= rt.cfg.ChunkThreshold {
			put, err := c.sealChunked(job)
			if err == nil {
				c.sends = append(c.sends, put)
				continue
			}
			if !errors.Is(err, errTooManyChunks) {
				rt.notePutError(err)
				continue
			}
		}
		c.span.begin(phaseEncrypt)
		sealed, err := rce.Encrypt(c.id, job.input, job.result)
		c.span.end(phaseEncrypt)
		if err != nil {
			rt.notePutError(fmt.Errorf("encrypt result: %w", err))
			continue
		}
		whole = append(whole, wire.PutItem{Tag: job.tag, Sealed: sealed, Replace: job.replace})
	}
	if len(whole) > 0 {
		tc := c.tc
		c.sends = append(c.sends, func() {
			prs, err := rt.clientPut(tc, whole)
			if err != nil {
				rt.notePutError(err)
				return
			}
			for _, pr := range prs {
				if !pr.OK {
					rt.notePutError(fmt.Errorf("%w: %s", ErrPutRejected, pr.Err))
				}
			}
		})
	}
}

// send is the untrusted half of the PUT stage (Algorithm 1 line 10): it
// runs the sends seal returned, in order, with no enclave crossing,
// timed as store_put.
func send(sends []func(), span *execSpan) {
	if len(sends) == 0 {
		return
	}
	span.begin(phaseStorePut)
	for _, put := range sends {
		put()
	}
	span.end(phaseStorePut)
}

// clientGet and clientPut are the runtime's only GET and PUT calls on
// the store client; they hold it to its positional contract. A request
// that fails or is answered with the wrong number of results is a
// store failure: clientPut counts it, clientGet's callers count it
// through storeGetFailed. A sampled tc reaches every store node that
// serves the request, which records its spans under the caller's trace
// ID. clientGet is also the GET crossing — one OCALL timed as store_get
// — for the pipeline's lookup and a manifest's chunk fetch alike;
// clientPut runs outside the enclave, from send.
func (rt *Runtime) clientGet(tc wire.TraceContext, tags []mle.Tag, tokens [][]byte, span *execSpan) ([]wire.GetResult, error) {
	var res []wire.GetResult
	span.begin(phaseStoreGet)
	err := rt.cfg.Enclave.OCall(func() (oerr error) {
		res, oerr = rt.cfg.Client.Get(tc, tags, tokens)
		return oerr
	})
	span.end(phaseStoreGet)
	if err != nil {
		return nil, err
	}
	if len(res) != len(tags) {
		return nil, fmt.Errorf("dedup: get returned %d results for %d tags", len(res), len(tags))
	}
	for i := range res {
		if res[i].Unchanged && (tokens == nil || tokens[i] == nil) {
			return nil, fmt.Errorf("dedup: get answered tag %d unchanged, whose version it did not name", i)
		}
	}
	return res, nil
}

func (rt *Runtime) clientPut(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	res, err := rt.cfg.Client.Put(tc, items)
	if err == nil && len(res) != len(items) {
		err = fmt.Errorf("dedup: put returned %d results for %d items", len(res), len(items))
	}
	if err != nil {
		rt.noteStoreFailure()
		return nil, err
	}
	return res, nil
}

func (rt *Runtime) notePutError(err error) {
	rt.mu.Lock()
	rt.stats.PutErrors++
	rt.mu.Unlock()
	rt.cfg.Logf("speed: put failed: %v", err)
}
