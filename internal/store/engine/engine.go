// Package engine defines the storage-engine seam behind store.Store:
// the pluggable backend that holds the dictionary of sealed results.
//
// The Store above the seam is engine-neutral policy — authorization,
// quotas, TTL policy, oblivious-access configuration and telemetry —
// while an Engine owns the data: where records live (RAM, disk), how
// they are found, and what survives a crash. Two engines implement the
// interface:
//
//   - the memory engine (store.memEngine): the original lock-striped
//     sharded map with global LRU, a volatile cache;
//   - the log engine (internal/store/logengine): an append-only WAL of
//     sealed records plus immutable sorted segments, durable and
//     larger than RAM — the only way a store survives a restart.
//
// Trust model: engines may move bytes onto untrusted media, but only
// sealed bytes (enclave-authenticated ciphertext) ever leave the trust
// boundary. Plaintext key material (challenges, wrapped keys) exists
// only inside enclave memory; an engine that persists it must seal it
// first and must treat anything read back as hostile until it
// authenticates.
package engine

import (
	"errors"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/telemetry"
)

// ErrClosed is returned by engine operations after Close. store.Store
// re-exports it as store.ErrClosed, so the message keeps the store
// prefix the public API always had.
var ErrClosed = errors.New("store: closed")

// Record is the unit an engine stores per tag: the small dictionary
// metadata (challenge r and wrapped key [k], Section IV-B) together
// with the result ciphertext and the bookkeeping the Store's policy
// layers need (owner for quota attribution, hits for popularity
// export, last touch for LRU and TTL).
type Record struct {
	// Challenge and WrappedKey are the in-enclave dictionary fields.
	Challenge  []byte
	WrappedKey []byte
	// Blob is the result ciphertext. Engines keep it outside enclave
	// memory accounting (it is AEAD ciphertext). May be nil on records
	// returned by Remove; BlobSize is always valid.
	Blob []byte
	// BlobSize is len(Blob) at insert time, kept so Remove can report
	// the freed bytes without re-reading the value.
	BlobSize int64
	// Owner is the attested measurement of the application that stored
	// the record, charged for its quota bytes.
	Owner enclave.Measurement
	// Hits counts positive lookups. Durable engines may persist hit
	// counts lazily (see the logengine package doc).
	Hits int64
	// LastTouch is the store time of the last Put or non-oblivious hit,
	// driving LRU eviction and TTL expiry.
	LastTouch time.Time
}

// GetStatus reports how a lookup resolved.
type GetStatus int

const (
	// StatusMiss: no live record for the tag.
	StatusMiss GetStatus = iota
	// StatusHit: the record was found and is returned.
	StatusHit
	// StatusExpired: a record exists but is past its TTL. The engine
	// does not remove it; the caller decides (store.Store removes it
	// and counts an expiry).
	StatusExpired
	// StatusDangling: dictionary metadata exists but the value is lost
	// or failed authentication (untrusted storage misbehaving). The
	// caller should remove the entry and treat the lookup as a miss.
	StatusDangling
)

// Lookup is one tag's answer from Engine.Get; Record is set on a hit.
type Lookup struct {
	Status GetStatus
	Record Record
}

// Item is a tag with its record, as one entry of an Engine.Insert
// message carries them.
type Item struct {
	Tag    mle.Tag
	Record Record
}

// Stats is a point-in-time snapshot of engine occupancy and activity.
// The memory engine fills only Entries/ValueBytes; the log engine
// fills everything.
type Stats struct {
	// Entries is the number of live records.
	Entries int
	// ValueBytes is the total ciphertext bytes of live records.
	ValueBytes int64

	// WALBytes is the current write-ahead-log length.
	WALBytes int64
	// WALRecords counts records appended to the WAL since open.
	WALRecords int64
	// WALSyncs counts fsyncs of appended WAL data since open; under
	// fsync=commit that is one per PUT message (group commit).
	WALSyncs int64
	// Flushes counts memtable-to-segment flushes.
	Flushes int64
	// Compactions counts completed segment merges.
	Compactions int64
	// CompactionBytesRead / CompactionBytesWritten total the segment
	// bytes merges consumed and produced; against the bytes flushes
	// wrote they give the engine's write amplification.
	CompactionBytesRead    int64
	CompactionBytesWritten int64
	// CompactionDebtBytes is the size of the run of segments a Compact
	// would merge first (0 at the tiering policy's fixed point).
	CompactionDebtBytes int64
	// Segments is the current immutable segment count.
	Segments int
	// SegmentBytes is the total on-disk segment size.
	SegmentBytes int64
	// CacheHits / CacheMisses count lookups served from the in-memory
	// tier (memtable or hot cache) vs lookups that had to touch disk.
	CacheHits   int64
	CacheMisses int64
	// SegmentProbes counts per-segment lookups that read the segment
	// file; FilterSkips counts those its fence or key filter answered
	// without a read. Probes per lookup is the read amplification.
	SegmentProbes int64
	FilterSkips   int64
	// Replayed is the number of WAL records recovered at open.
	Replayed int64
	// TornTails counts truncated WAL tails observed at open (0 or 1
	// per recovery, cumulative across reopens of this process).
	TornTails int64
}

// Engine is the pluggable storage backend behind store.Store. All
// methods must be safe for concurrent use.
//
// Engines own enclave memory accounting for whatever structures they
// keep inside the trust boundary (dictionary entries, memtables,
// indexes) via the enclave handle they are constructed with, so the
// simulated EPC pressure tracks the engine actually in use.
type Engine interface {
	// Name identifies the engine ("memory", "log") for telemetry
	// labels and operator output.
	Name() string

	// Get, Contains and Insert each serve one request message — a
	// single is a message of one — and do all their in-enclave
	// dictionary work in one Enclave.ECall, so a crossing is paid per
	// message, not per item (the log engine enters once more per Get
	// that has segment-resident records to unseal).

	// Get looks the tags up in order and answers a prefix of them
	// positionally: it ends before the first hit whose sealed size
	// (challenge + wrapped key + blob) would take the answers past
	// budget bytes — that record is neither counted nor touched — but
	// always holds one answer. An engine that reads records from disk
	// may end the prefix sooner, once what it has read passes budget, so
	// that a message never reads much more than it can answer. On
	// StatusHit the Record's byte slices are owned by the caller (engines
	// copy out). Engines configured oblivious perform access-pattern-
	// uniform lookups over their in-enclave structures, for every tag,
	// and skip recency maintenance.
	Get(tags []mle.Tag, budget int) ([]Lookup, error)
	// Contains reports, positionally, whether a live record exists for
	// each tag. Unlike Get it must not count a hit, refresh recency or
	// touch LRU state — it answers existence probes (chunked dedup's
	// missing-chunk transfer) that should leave popularity signals
	// untouched. The answers are hints: engines may report a TTL-stale
	// record as present (the log engine's index ignores TTL) and callers
	// must tolerate a later Get missing.
	Contains(tags []mle.Tag) ([]bool, error)
	// Insert stores, in order, each item whose tag has no live record —
	// in the store or earlier in the message (first version wins,
	// Section IV-B Remark) — and reports positionally which it
	// installed, also beside an error. The engine copies what it keeps.
	// A durable engine acknowledges nothing before the whole message is
	// as durable as its policy promises.
	Insert(items []Item) (installed []bool, err error)
	// Remove deletes the tag's record, returning it (Blob may be nil;
	// BlobSize and Owner are always set) so the caller can settle
	// quota accounting.
	Remove(tag mle.Tag) (Record, bool, error)

	// Len reports the number of live records.
	Len() int
	// ValueBytes reports the total ciphertext bytes of live records.
	ValueBytes() int64
	// Iterate streams every live record to fn until fn returns false.
	// It is a bounded iterator: engines must not materialize the whole
	// keyspace (memory use is O(one shard) for the memory engine and
	// O(one record + per-segment cursors) for the log engine), so
	// hot-export works on stores larger than RAM.
	// Iteration order is unspecified. fn must not call back into the
	// engine.
	Iterate(fn func(tag mle.Tag, rec Record) bool) error
	// Oldest reports the least-recently-touched live tag, the victim
	// the Store's global LRU eviction removes under MaxEntries /
	// MaxBlobBytes pressure. May be expensive on durable engines.
	Oldest() (mle.Tag, bool)

	// Stats snapshots engine occupancy and activity counters.
	Stats() Stats
	// RegisterTelemetry adds the engine's own series (per-shard
	// occupancy, WAL/segment/cache activity) to reg.
	RegisterTelemetry(reg *telemetry.Registry)
	// Checkpoint makes every acknowledged insert durable (flush +
	// fsync); a no-op for volatile engines.
	Checkpoint() error
	// Compact runs the engine's segment-merge policy until it has
	// nothing left to merge; a no-op for volatile engines.
	Compact() error
	// Close releases the engine's resources. Operations after Close
	// return ErrClosed. Durable engines flush before closing.
	Close() error
	// Crash abandons the engine without flushing or syncing — the
	// on-disk state a kill -9 would leave behind, for crash-recovery
	// tests and benchmarks. Volatile engines just close.
	Crash()
}
