// Package store implements SPEED's encrypted ResultStore (Section
// IV-B): an enclave-protected metadata dictionary keyed by computation
// tag, whose entries are deliberately small (challenge, wrapped key and
// a pointer), with the bulk result ciphertexts kept outside the enclave
// for EPC efficiency. The package also provides per-application quotas
// (the paper's DoS rate-limiting strategy), capacity eviction, and a TCP
// server speaking the wire protocol. The dictionary lives in the storage
// engine (internal/store/logengine): without a data directory a volatile
// store whose entries are charged to the enclave for metadata only, with
// one a sealed WAL and segments that survive a restart.
package store

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
	"speed/internal/store/logengine"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

var (
	// ErrQuota is returned when a PUT is rejected by the quota
	// mechanism.
	ErrQuota = errors.New("store: quota exceeded")
	// ErrClosed is returned after Close.
	ErrClosed = storeengine.ErrClosed
)

// EngineLog is the one value Config.Engine accepts besides "": it asks
// for the persistent configuration, sealed WAL + sorted segments with
// crash recovery by segment load and WAL replay, and so requires
// DataDir.
const EngineLog = "log"

// Config configures a Store.
type Config struct {
	// Enclave hosts the metadata dictionary. Required.
	Enclave *enclave.Enclave
	// Engine is "" or EngineLog; EngineLog only insists on DataDir.
	Engine string
	// DataDir is the storage engine's on-disk directory, which makes
	// the store persistent; empty makes it a volatile cache. Required
	// when Engine is EngineLog.
	DataDir string
	// MemtableBytes bounds a persistent store's write buffer, in
	// whole-record bytes of host memory, before it flushes a sorted
	// segment; 0 selects the default.
	MemtableBytes int64
	// CacheBytes bounds a persistent store's hot-entry read cache, in
	// whole-record bytes of host memory; 0 selects the default.
	CacheBytes int64
	// Fsync selects a persistent store's WAL durability policy: "commit"
	// (fsync before acknowledging every PUT, the default) or "none".
	Fsync string
	// CompactInterval is how often a persistent store's background
	// compactor considers merging segments; 0 selects the default.
	CompactInterval time.Duration
	// MaxEntries caps the dictionary size; 0 means unlimited. When a
	// PUT (or opening a DataDir that holds more) exceeds it, entries are
	// evicted until it holds: in a volatile store the least recently
	// used, in a persistent one the oldest segment's first, in tag order,
	// and the memtable's least recently used only once no segment holds
	// a live record. A read refreshes recency in memory only.
	MaxEntries int
	// MaxBlobBytes caps total ciphertext bytes the same way; 0 means
	// unlimited.
	MaxBlobBytes int64
	// MaxBytesPerApp caps the ciphertext bytes one application may have
	// resident, the paper's per-application quota; a PUT past it is
	// rejected with ErrQuota. 0 means unlimited.
	MaxBytesPerApp int64
	// Auth, when non-nil, gates every message by the caller's attested
	// measurement (controlled deduplication, Section III-D); nil is open.
	Auth *ACL
	// Oblivious makes dictionary lookups access-pattern oblivious: a
	// GET touches every in-enclave entry with constant-time tag
	// comparison and performs no LRU bookkeeping, so an adversary
	// observing enclave memory accesses cannot tell which entry (if
	// any) matched. This trades throughput for side-channel resistance
	// (the security/performance balance the paper defers to future
	// work, Section III-D). The guarantee covers the in-enclave
	// structures (memtable, cache); a persistent store's segment reads
	// stay observable, see DESIGN.md "Storage engine".
	Oblivious bool
	// Telemetry, when non-nil, registers the store's counters (gets,
	// hits, puts, denials, evictions — backed by the Stats snapshot),
	// occupancy gauges (and, for a persistent store, WAL/segment/cache
	// series), and per-operation service-latency histograms
	// speed_store_op_seconds{op="get"|"put"}. Nil disables.
	Telemetry *telemetry.Registry
	// Logf receives engine diagnostics (recovery, compaction); nil
	// discards.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of store activity. The operation counters are
// mutated and snapshotted under one lock, so the snapshot is
// internally consistent (e.g. Hits never exceeds Gets).
type Stats struct {
	Gets         int64
	Hits         int64
	Unchanged    int64 // hits whose GET token named the entry's version, answered without its triple
	Puts         int64
	PutDupes     int64
	PutDenied    int64
	Unauthorized int64
	Evictions    int64
	Entries      int
	BlobBytes    int64
}

// Store is the encrypted ResultStore: policy (authorization, quotas,
// limits, telemetry) over the storage engine. All methods are safe
// for concurrent use.
type Store struct {
	cfg Config
	eng *logengine.Engine

	quota  *quotas
	closed atomic.Bool

	statsMu sync.Mutex
	ops     Stats // operation counters; Entries/BlobBytes filled on snapshot

	// Per-op service-latency histograms; nil (and skipped) when
	// Config.Telemetry was nil.
	getSeconds *telemetry.Histogram
	putSeconds *telemetry.Histogram
}

// New constructs a Store over the storage engine, opening (and
// recovering) DataDir when one is set.
func New(cfg Config) (*Store, error) {
	if cfg.Enclave == nil {
		return nil, errors.New("store: Config.Enclave is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	switch {
	case cfg.Engine != "" && cfg.Engine != EngineLog:
		return nil, fmt.Errorf("store: unknown engine %q", cfg.Engine)
	case cfg.Engine == EngineLog && cfg.DataDir == "":
		return nil, errors.New("store: Engine \"log\" requires Config.DataDir")
	}
	fsync, err := logengine.ParseFsync(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	eng, err := logengine.Open(logengine.Config{
		Dir:             cfg.DataDir,
		Enclave:         cfg.Enclave,
		MemtableBytes:   cfg.MemtableBytes,
		CacheBytes:      cfg.CacheBytes,
		Fsync:           fsync,
		CompactInterval: cfg.CompactInterval,
		Oblivious:       cfg.Oblivious,
		Logf:            cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("store: open log engine: %w", err)
	}
	s := &Store{cfg: cfg, eng: eng, quota: newQuotas(cfg.MaxBytesPerApp)}
	s.registerTelemetry(cfg.Telemetry)
	s.enforceLimits() // a reopened directory may hold more than the caps
	return s, nil
}

// Checkpoint makes every acknowledged PUT durable: a persistent store
// flushes its memtable and fsyncs its WAL; a volatile one has nothing
// to do.
func (s *Store) Checkpoint() error { return s.eng.Checkpoint() }

// registerTelemetry wires the store into reg: latency histograms are
// real metrics observed inline, while the counters and gauges read the
// Stats snapshot on demand so there is a single source of truth (and
// several stores sharing one registry sum, see telemetry.CounterFunc).
// The engine registers its own WAL/segment/cache series, when it has
// those tiers.
func (s *Store) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.getSeconds = reg.NewHistogram("speed_store_op_seconds",
		"store operation service latency", telemetry.L("op", "get"))
	s.putSeconds = reg.NewHistogram("speed_store_op_seconds",
		"store operation service latency", telemetry.L("op", "put"))
	for _, c := range []struct {
		name, help string
		field      func(Stats) int64
	}{
		{"speed_store_gets_total", "GET requests", func(st Stats) int64 { return st.Gets }},
		{"speed_store_hits_total", "GET requests answered positively", func(st Stats) int64 { return st.Hits }},
		{"speed_store_unchanged_total", "hits answered unchanged, without the triple the caller's token named", func(st Stats) int64 { return st.Unchanged }},
		{"speed_store_puts_total", "accepted fresh uploads", func(st Stats) int64 { return st.Puts }},
		{"speed_store_put_dupes_total", "uploads for already-stored tags", func(st Stats) int64 { return st.PutDupes }},
		{"speed_store_put_denied_total", "uploads rejected by quota", func(st Stats) int64 { return st.PutDenied }},
		{"speed_store_unauthorized_total", "operations denied by controlled deduplication", func(st Stats) int64 { return st.Unauthorized }},
		{"speed_store_evictions_total", "entries evicted by the MaxEntries/MaxBlobBytes caps", func(st Stats) int64 { return st.Evictions }},
	} {
		field := c.field
		reg.NewCounterFunc(c.name, c.help, func() int64 { return field(s.Stats()) })
	}
	reg.NewGaugeFunc("speed_store_entries", "current dictionary size",
		func() float64 { return float64(s.Len()) })
	reg.NewGaugeFunc("speed_store_blob_bytes", "resident ciphertext bytes outside the enclave",
		func() float64 { return float64(s.eng.ValueBytes()) })
	s.eng.RegisterTelemetry(reg)
}

// Enclave returns the enclave hosting the metadata dictionary.
func (s *Store) Enclave() *enclave.Enclave { return s.cfg.Enclave }

// count folds one message's outcomes into the op counters under one
// lock acquisition, keeping Stats snapshots consistent (Hits <= Gets).
func (s *Store) count(fold func(ops *Stats)) {
	s.statsMu.Lock()
	fold(&s.ops)
	s.statsMu.Unlock()
}

// GetAs is Get with the caller's attested identity, checked against
// the store's ACL when one is configured.
func (s *Store) GetAs(app enclave.Measurement, tag mle.Tag) (mle.Sealed, bool, error) {
	if err := s.cfg.Auth.Authorize(app, PermGet); err != nil {
		s.count(func(ops *Stats) { ops.Unauthorized++ })
		return mle.Sealed{}, false, err
	}
	return s.Get(tag)
}

// Get looks up one computation tag, returning a copy of the (r, [k],
// [res]) triple, the caller's to keep and write, when found.
func (s *Store) Get(tag mle.Tag) (mle.Sealed, bool, error) {
	results, err := s.get([]mle.Tag{tag}, nil, math.MaxInt)
	if err != nil {
		return mle.Sealed{}, false, err
	}
	return results[0].Sealed.Clone(), results[0].Found, nil
}

// WireGet answers one GET message on behalf of owner in wire terms: a
// prefix of tags, ending before the first hit that would take the
// sealed payload past budget bytes (left untouched for the caller's
// next request) but never empty. tokens, nil or one per tag, are the
// challenges of the versions the caller holds: a hit on the version its
// token names is answered Unchanged, with no triple. A hit's Sealed is a read-only view of
// the engine's record, for the server to seal its reply from; an
// in-process caller that keeps or writes it copies it. It and WirePut
// are the single copy of the store-error → wire-result mapping, called
// once per message by the server's dispatch and the in-process client,
// so local and remote deployments answer identically. An unauthorized
// application is denied without information: it sees a miss for every
// tag, each counted, and learns nothing about which tags exist.
func (s *Store) WireGet(owner enclave.Measurement, tags []mle.Tag, tokens [][]byte, budget int) ([]wire.GetResult, error) {
	if s.cfg.Auth.Authorize(owner, PermGet) != nil {
		s.count(func(ops *Stats) { ops.Unauthorized += int64(len(tags)) })
		return make([]wire.GetResult, len(tags)), nil
	}
	return s.get(tags, tokens, budget)
}

// get looks one message's tags up, answering a prefix (see WireGet),
// drops the dangling entries it met and counts the message.
func (s *Store) get(tags []mle.Tag, tokens [][]byte, budget int) ([]wire.GetResult, error) {
	if len(tags) == 0 {
		return nil, nil // a ping
	}
	if s.getSeconds != nil {
		start := time.Now()
		defer func() { s.getSeconds.Observe(time.Since(start)) }()
	}
	found, err := s.eng.Get(tags, budget)
	if err != nil {
		return nil, err
	}
	results := make([]wire.GetResult, len(found))
	var hits, unchanged int64
	for i := range found {
		switch rec := &found[i].Record; found[i].Status {
		case storeengine.StatusDangling:
			// The entry was found (a hit, for accounting) but its value is
			// gone; drop it and report a miss so the application
			// recomputes. Asked for twice in a message, it is found once.
			if s.remove(tags[i], reasonDangling) {
				hits++
			}
		case storeengine.StatusHit:
			hits++
			if tokens != nil && len(tokens[i]) > 0 && subtle.ConstantTimeCompare(tokens[i], rec.Challenge) == 1 {
				unchanged++
				results[i] = wire.GetResult{Found: true, Unchanged: true}
				continue
			}
			results[i] = wire.GetResult{Found: true, Sealed: mle.Sealed{
				Challenge: rec.Challenge, WrappedKey: rec.WrappedKey, Blob: rec.Blob}}
		}
	}
	s.count(func(ops *Stats) {
		ops.Gets += int64(len(found))
		ops.Hits += hits
		ops.Unchanged += unchanged
	})
	return results, nil
}

// Put stores a freshly computed sealed result for the tag on behalf of
// the application identified by owner. Duplicate tags keep the first
// stored version ("only one version of result ciphertext ... needs to
// be stored", Section IV-B Remark); installed reports whether this call
// created the entry.
func (s *Store) Put(owner enclave.Measurement, tag mle.Tag, sealed mle.Sealed) (installed bool, err error) {
	created, rejected, err := s.put(owner, []wire.PutItem{{Tag: tag, Sealed: sealed}})
	if err != nil {
		return false, err
	}
	return created[0], rejected[0]
}

// WirePut answers one PUT message on behalf of owner in wire terms.
// Quota and authorization rejections are an item's answer, carrying the
// store's reason; only internal failures are errors.
func (s *Store) WirePut(owner enclave.Measurement, items []wire.PutItem) ([]wire.PutResult, error) {
	_, rejected, err := s.put(owner, items)
	if err != nil {
		return nil, err
	}
	results := make([]wire.PutResult, len(rejected))
	for i, r := range rejected {
		if results[i].OK = r == nil; r != nil {
			results[i].Err = r.Error()
		}
	}
	return results, nil
}

// put is the PUT policy of one message: the message is authorized once
// (an owner without PermPut has every item rejected), each item is
// charged to its owner's quota in order, the admitted items reach the
// engine together (one enclave entry), and duplicates — the first
// stored version wins — are credited back. An item with Replace set
// overwrites any existing entry: an application recomputed the result
// after the stored version failed verification, and without
// replacement the bad entry would cost every future caller a
// recomputation; it is still subject to authorization and its quota,
// so an adversary cannot hold more of the cache than its quota allows,
// and a concurrent Put that wins the race after the removal just makes
// the item a duplicate of another fresh version. The answers are those
// the items would get arriving one by one: what precedes an item is
// applied and settled first when it has Replace set, would not fit the
// space quota as charged so far, or could take the store past a global
// cap (so that eviction sees it alone). Positionally, installed says which
// items created their entry and rejected holds the ErrQuota or
// ErrUnauthorized that kept an item out.
func (s *Store) put(owner enclave.Measurement, items []wire.PutItem) (installed []bool, rejected []error, err error) {
	if s.putSeconds != nil {
		start := time.Now()
		defer func() { s.putSeconds.Observe(time.Since(start)) }()
	}
	installed, rejected = make([]bool, len(items)), make([]error, len(items))
	if err := s.cfg.Auth.Authorize(owner, PermPut); err != nil {
		for i := range rejected {
			rejected[i] = err
		}
		s.count(func(ops *Stats) { ops.Unauthorized += int64(len(items)) })
		return installed, rejected, nil
	}
	var (
		run     = make([]storeengine.Item, 0, len(items)) // admitted, not yet inserted
		at      = make([]int, 0, len(items))              // their positions in the message
		pending int64                                     // their blob bytes
		stats   Stats
	)
	defer s.count(func(ops *Stats) {
		ops.Puts += stats.Puts
		ops.PutDupes += stats.PutDupes
		ops.PutDenied += stats.PutDenied
	})
	// flush inserts the run and settles it: the quota charge of a
	// duplicate (or, on error, of an item never applied) is returned.
	flush := func() error {
		fresh, err := s.eng.Insert(run)
		for j, it := range run {
			if j < len(fresh) && fresh[j] {
				installed[at[j]] = true
				stats.Puts++
				continue
			}
			s.quota.creditBytes(owner, it.Record.BlobSize)
			if err == nil {
				stats.PutDupes++
			}
		}
		run, at, pending = run[:0], at[:0], 0
		s.enforceLimits()
		return err
	}
	for i, it := range items {
		blobLen := int64(len(it.Sealed.Blob))
		if len(run) > 0 && (it.Replace || !s.quota.fits(owner, blobLen) || s.overLimits(len(run)+1, pending+blobLen)) {
			if err := flush(); err != nil {
				return nil, nil, err
			}
		}
		if !s.quota.allowPut(owner, blobLen) {
			stats.PutDenied++
			rejected[i] = fmt.Errorf("%w: cache space quota exceeded", ErrQuota)
			continue
		}
		if it.Replace {
			s.remove(it.Tag, reasonReplace)
		}
		run = append(run, storeengine.Item{Tag: it.Tag, Record: storeengine.Record{
			Challenge: it.Sealed.Challenge, WrappedKey: it.Sealed.WrappedKey, Blob: it.Sealed.Blob,
			BlobSize: blobLen, Owner: owner}})
		at = append(at, i)
		pending += blobLen
	}
	if len(run) > 0 {
		err = flush()
	}
	return installed, rejected, err
}

// overLimits reports whether n more entries holding size more blob
// bytes would put the store over its MaxEntries or MaxBlobBytes cap.
func (s *Store) overLimits(n int, size int64) bool {
	return s.cfg.MaxEntries > 0 && s.eng.Len()+n > s.cfg.MaxEntries ||
		s.cfg.MaxBlobBytes > 0 && s.eng.ValueBytes()+size > s.cfg.MaxBlobBytes
}

// enforceLimits evicts entries until the global MaxEntries/MaxBlobBytes
// caps are respected. The victim is the engine's (logengine's Oldest),
// wherever it lives.
func (s *Store) enforceLimits() {
	if s.cfg.MaxEntries <= 0 && s.cfg.MaxBlobBytes <= 0 {
		return
	}
	// Bounded: a pass can only need to evict as many entries as exist.
	for limit := s.eng.Len() + 1; limit > 0 && s.overLimits(0, 0); limit-- {
		victim, ok := s.eng.Oldest()
		if !ok {
			return
		}
		s.remove(victim, reasonEvict)
	}
}

// deleteReason distinguishes why an entry is removed, for accurate
// statistics.
type deleteReason int

const (
	reasonEvict deleteReason = iota + 1
	reasonDangling
	reasonReplace
)

// remove deletes an entry through the engine and settles quota and
// stats accounting. It reports whether the entry existed.
func (s *Store) remove(tag mle.Tag, reason deleteReason) bool {
	rec, ok, _ := s.eng.Remove(tag)
	if !ok {
		return false
	}
	if reason == reasonEvict {
		s.count(func(ops *Stats) { ops.Evictions++ })
	}
	s.quota.creditBytes(rec.Owner, rec.BlobSize)
	return true
}

// Stats returns a snapshot of the store's counters. The operation
// counters are copied under their lock, so the snapshot is internally
// consistent; occupancy comes from the engine.
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	st := s.ops
	s.statsMu.Unlock()
	st.Entries = s.eng.Len()
	st.BlobBytes = s.eng.ValueBytes()
	return st
}

// EngineStats returns the engine's occupancy and activity snapshot
// (WAL/segment counters stay zero on a volatile store).
func (s *Store) EngineStats() storeengine.Stats {
	return s.eng.Stats()
}

// Len reports the number of dictionary entries.
func (s *Store) Len() int {
	return s.eng.Len()
}

// Close marks the store closed. Subsequent Get/Put return ErrClosed.
// A persistent store flushes and releases its on-disk state.
func (s *Store) Close() {
	s.closed.Store(true)
	_ = s.eng.Close()
}

// Compact runs a persistent store's size-tiered merge policy to its
// fixed point (it merges eligible runs, not everything); a no-op on a
// volatile store.
func (s *Store) Compact() error { return s.eng.Compact() }

// Crash abandons the store without flushing or syncing — the on-disk
// state a kill -9 would leave behind. The benchmark and crash tests
// use it to measure recovery of acknowledged PUTs; on a volatile store
// it is Close.
func (s *Store) Crash() {
	s.closed.Store(true)
	s.eng.Crash()
}

// Closed reports whether Close has been called.
func (s *Store) Closed() bool {
	return s.closed.Load()
}
