// Package engine holds what store.Store shares with its storage engine
// (internal/store/logengine): the Record a tag maps to, the answers of
// a lookup, the engine's Stats, and Table, the in-enclave dictionary
// tier the engine builds its memtable and hot cache from.
//
// The Store is policy — authorization, quotas, limits and telemetry —
// and the engine owns the data: where records live, how they are
// found, and what survives a crash. There is one engine in two
// configurations. With a directory it keeps a sealed WAL and sorted
// segments and survives a restart; without one it is a volatile store
// whose memtable holds everything and never flushes.
//
// Trust model: the engine may move bytes onto untrusted media, but only
// sealed bytes (enclave-authenticated ciphertext) ever leave the trust
// boundary. Plaintext key material (challenges, wrapped keys) exists
// only inside enclave memory; what is persisted is sealed first, and
// anything read back is hostile until it authenticates.
package engine

import (
	"errors"

	"speed/internal/enclave"
	"speed/internal/mle"
)

// ErrClosed is returned by engine operations after Close. store.Store
// re-exports it as store.ErrClosed, so the message keeps the store
// prefix the public API always had.
var ErrClosed = errors.New("store: closed")

// Record is the unit the engine stores per tag: the small dictionary
// metadata (challenge r and wrapped key [k], Section IV-B) together
// with the result ciphertext and the owner the Store's quotas charge.
// It carries no popularity: the eviction order is the engine's (a
// Table's LRU order in memory, segment age on disk), not the record's.
type Record struct {
	// Challenge and WrappedKey are the in-enclave dictionary fields.
	Challenge  []byte
	WrappedKey []byte
	// Blob is the result ciphertext (AEAD ciphertext, safe outside the
	// enclave). May be nil on records returned by Remove; BlobSize is
	// always valid.
	Blob []byte
	// BlobSize is len(Blob) at insert time, kept so Remove can report
	// the freed bytes without re-reading the value.
	BlobSize int64
	// Owner is the attested measurement of the application that stored
	// the record, charged for its quota bytes.
	Owner enclave.Measurement
}

// GetStatus reports how a lookup resolved.
type GetStatus int

const (
	// StatusMiss: no live record for the tag.
	StatusMiss GetStatus = iota
	// StatusHit: the record was found and is returned.
	StatusHit
	// StatusDangling: dictionary metadata exists but the value is lost
	// or failed authentication (untrusted storage misbehaving). The
	// caller should remove the entry and treat the lookup as a miss.
	StatusDangling
)

// Lookup is one tag's answer from the engine's Get; Record is set on a
// hit. Its byte slices are read-only views: the engine never writes a
// record's bytes once stored, and neither may the caller.
type Lookup struct {
	Status GetStatus
	Record Record
}

// Item is a tag with its record, as one entry of an Insert message
// carries them.
type Item struct {
	Tag    mle.Tag
	Record Record
}

// Stats is a point-in-time snapshot of engine occupancy and activity.
// Without a directory only Entries, ValueBytes and CacheHits move.
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
	// Flushes counts memtable flushes, from the freeze that starts each;
	// FlushWaits the PUTs that waited for the frozen one's segment.
	Flushes, FlushWaits int64
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
	// Segments and SegmentBytes count the segments and their bytes, a
	// frozen memtable as the segment it becomes.
	Segments     int
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
