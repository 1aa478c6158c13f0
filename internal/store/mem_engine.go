package store

import (
	"container/list"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
	"speed/internal/telemetry"
)

// memEngine is the default storage engine: a lock-striped sharded
// dictionary with a global LRU, entirely in memory — a pure volatile
// cache (a store that must survive a restart runs the log engine).
// Each entry's metadata is charged to the store enclave; its
// ciphertext is held by reference outside enclave accounting. The
// ECall pattern is one per GET and two per PUT, oblivious lookups scan
// every shard, and eviction picks the globally least-recent entry.
type memEngine struct {
	enclave   *enclave.Enclave
	oblivious bool
	ttl       time.Duration
	now       func() time.Time

	shards    []*shard
	shardMask uint32

	// Global occupancy accounting, shared by all shards: the dictionary
	// entry count and the resident ciphertext bytes.
	entries   atomic.Int64
	blobTotal atomic.Int64

	closed atomic.Bool
}

var _ storeengine.Engine = (*memEngine)(nil)

// entry is the small in-enclave dictionary record: the challenge r, the
// wrapped key [k], and a pointer to the out-of-enclave ciphertext
// (Section IV-B: "the dictionary entry is designed to be small"). blob
// is that pointer: the bytes it refers to are AEAD ciphertext in
// untrusted memory, never charged to the enclave and never mutated
// after insert.
type entry struct {
	challenge  []byte
	wrappedKey []byte
	blob       []byte
	owner      enclave.Measurement
	hits       int64
	lastTouch  time.Time
	lruElem    *list.Element
}

func (e *entry) enclaveBytes() int64 {
	return entryOverhead + int64(len(e.challenge)+len(e.wrappedKey))
}

// shard is one lock stripe of the dictionary: its own map and LRU
// list, so GETs and PUTs for different tags proceed in parallel on
// different cores.
type shard struct {
	mu   sync.Mutex
	dict map[mle.Tag]*entry
	lru  *list.List // front = most recent; values are mle.Tag
}

// newMemEngine builds the sharded in-memory engine. shards is rounded
// up to a power of two.
func newMemEngine(enc *enclave.Enclave, shards int, oblivious bool, ttl time.Duration, now func() time.Time) *memEngine {
	n := shards
	if n <= 0 {
		n = defaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n)) // round up to a power of two
	}
	m := &memEngine{
		enclave:   enc,
		oblivious: oblivious,
		ttl:       ttl,
		now:       now,
		shards:    make([]*shard, n),
		shardMask: uint32(n - 1),
	}
	for i := range m.shards {
		m.shards[i] = &shard{dict: make(map[mle.Tag]*entry), lru: list.New()}
	}
	return m
}

func (m *memEngine) Name() string { return "memory" }

// shardFor selects a tag's home shard. Tags are outputs of a
// cryptographic hash, so any fixed window of bits is uniform.
func (m *memEngine) shardFor(tag mle.Tag) *shard {
	return m.shards[binary.BigEndian.Uint32(tag[:4])&m.shardMask]
}

// expiredLocked reports whether the entry is past its TTL. Caller
// holds the entry's shard lock.
func (m *memEngine) expiredLocked(e *entry) bool {
	return m.ttl > 0 && m.now().Sub(e.lastTouch) > m.ttl
}

// Get implements engine.Engine. The dictionary access happens inside
// the store enclave (one ECALL); the ciphertext is copied out of
// untrusted memory outside it.
func (m *memEngine) Get(tag mle.Tag) (storeengine.Record, storeengine.GetStatus, error) {
	var (
		rec     storeengine.Record
		found   bool
		expired bool
		blob    []byte
	)
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		if m.oblivious {
			// Scan every shard with identical per-entry work so the
			// access pattern reveals neither the entry nor the shard.
			home := m.shardFor(tag)
			for _, sh := range m.shards {
				sh.mu.Lock()
				e := obliviousLookupLocked(sh, tag)
				if sh == home && e != nil {
					if m.expiredLocked(e) {
						expired = true
					} else {
						found = true
						e.hits++
						rec = m.recordLocked(e)
						blob = e.blob
					}
				}
				sh.mu.Unlock()
			}
			return nil
		}
		sh := m.shardFor(tag)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		e, ok := sh.dict[tag]
		if !ok {
			return nil
		}
		if m.expiredLocked(e) {
			// Leave the stale entry for the caller to collect lazily.
			expired = true
			return nil
		}
		found = true
		e.hits++
		// LRU maintenance and freshness updates reveal which entry was
		// touched; they only run in the non-oblivious path.
		sh.lru.MoveToFront(e.lruElem)
		e.lastTouch = m.now()
		rec = m.recordLocked(e)
		blob = e.blob
		return nil
	})
	if err != nil {
		return storeengine.Record{}, storeengine.StatusMiss, err
	}
	if expired {
		return storeengine.Record{}, storeengine.StatusExpired, nil
	}
	if !found {
		return storeengine.Record{}, storeengine.StatusMiss, nil
	}
	rec.Blob = append([]byte(nil), blob...)
	return rec, storeengine.StatusHit, nil
}

// Contains implements engine.Engine: a pure existence probe with no
// hit count, LRU or freshness side effects. It answers inside the
// enclave like Get's dictionary access; when the engine is oblivious
// it reuses the all-shard constant-work scan so probes are as
// access-pattern-uniform as lookups.
func (m *memEngine) Contains(tag mle.Tag) (bool, error) {
	var present bool
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		if m.oblivious {
			home := m.shardFor(tag)
			for _, sh := range m.shards {
				sh.mu.Lock()
				e := obliviousLookupLocked(sh, tag)
				if sh == home && e != nil && !m.expiredLocked(e) {
					present = true
				}
				sh.mu.Unlock()
			}
			return nil
		}
		sh := m.shardFor(tag)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if e, ok := sh.dict[tag]; ok && !m.expiredLocked(e) {
			present = true
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	return present, nil
}

// recordLocked copies an entry's metadata out; caller holds the shard
// lock. The blob is copied separately, outside the enclave.
func (m *memEngine) recordLocked(e *entry) storeengine.Record {
	return storeengine.Record{
		Challenge:  append([]byte(nil), e.challenge...),
		WrappedKey: append([]byte(nil), e.wrappedKey...),
		BlobSize:   int64(len(e.blob)),
		Owner:      e.owner,
		Hits:       e.hits,
		LastTouch:  e.lastTouch,
	}
}

// Insert implements engine.Engine in two enclave entries:
// duplicate-check first under the shard lock; only copy the blob
// (outside) and charge the metadata if this is a fresh tag; then
// insert under the lock again, releasing the charge if a concurrent
// identical PUT won the race.
func (m *memEngine) Insert(tag mle.Tag, rec storeengine.Record) (bool, error) {
	sh := m.shardFor(tag)
	dupe := false
	err := m.enclave.ECall(func() error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if m.closed.Load() {
			return ErrClosed
		}
		if _, ok := sh.dict[tag]; ok {
			dupe = true
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	if dupe {
		return false, nil
	}

	e := &entry{
		challenge:  append([]byte(nil), rec.Challenge...),
		wrappedKey: append([]byte(nil), rec.WrappedKey...),
		blob:       append([]byte(nil), rec.Blob...),
		owner:      rec.Owner,
		hits:       rec.Hits,
		lastTouch:  rec.LastTouch,
	}
	if err := m.enclave.Alloc(e.enclaveBytes()); err != nil {
		return false, fmt.Errorf("metadata allocation: %w", err)
	}

	err = m.enclave.ECall(func() error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if m.closed.Load() {
			return ErrClosed
		}
		if _, ok := sh.dict[tag]; ok {
			// Lost a race with a concurrent identical PUT.
			dupe = true
			return nil
		}
		e.lruElem = sh.lru.PushFront(tag)
		sh.dict[tag] = e
		m.entries.Add(1)
		m.blobTotal.Add(int64(len(e.blob)))
		return nil
	})
	if err != nil || dupe {
		m.enclave.Free(e.enclaveBytes())
		return false, err
	}
	return true, nil
}

// Remove implements engine.Engine: it deletes the entry, releasing its
// enclave memory, and returns the removed record's metadata
// so the caller can settle quota accounting.
func (m *memEngine) Remove(tag mle.Tag) (storeengine.Record, bool, error) {
	sh := m.shardFor(tag)
	sh.mu.Lock()
	e, ok := sh.dict[tag]
	if ok {
		delete(sh.dict, tag)
		sh.lru.Remove(e.lruElem)
		m.entries.Add(-1)
		m.blobTotal.Add(-int64(len(e.blob)))
	}
	sh.mu.Unlock()
	if !ok {
		return storeengine.Record{}, false, nil
	}
	m.enclave.Free(e.enclaveBytes())
	return storeengine.Record{
		BlobSize:  int64(len(e.blob)),
		Owner:     e.owner,
		Hits:      e.hits,
		LastTouch: e.lastTouch,
	}, true, nil
}

// Len implements engine.Engine.
func (m *memEngine) Len() int { return int(m.entries.Load()) }

// ValueBytes implements engine.Engine.
func (m *memEngine) ValueBytes() int64 { return m.blobTotal.Load() }

// Iterate implements engine.Engine. Memory stays bounded by one
// shard's metadata plus one blob: each shard's references are copied
// under its lock, then blobs are copied and records yielded outside
// the lock.
func (m *memEngine) Iterate(fn func(tag mle.Tag, rec storeengine.Record) bool) error {
	type ref struct {
		tag  mle.Tag
		rec  storeengine.Record
		blob []byte
	}
	var refs []ref // reused across shards
	for _, sh := range m.shards {
		refs = refs[:0]
		err := m.enclave.ECall(func() error {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			for tag, e := range sh.dict {
				refs = append(refs, ref{tag: tag, rec: m.recordLocked(e), blob: e.blob})
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, r := range refs {
			r.rec.Blob = append([]byte(nil), r.blob...)
			if !fn(r.tag, r.rec) {
				return nil
			}
		}
	}
	return nil
}

// Oldest implements engine.Engine: each shard's LRU tail is its local
// least-recent entry, and lastTouch orders the tails globally.
func (m *memEngine) Oldest() (mle.Tag, bool) {
	var (
		best  mle.Tag
		bestT time.Time
		found bool
	)
	for _, sh := range m.shards {
		sh.mu.Lock()
		if el := sh.lru.Back(); el != nil {
			if tag, ok := el.Value.(mle.Tag); ok {
				e := sh.dict[tag]
				if e != nil && (!found || e.lastTouch.Before(bestT)) {
					best, bestT, found = tag, e.lastTouch, true
				}
			}
		}
		sh.mu.Unlock()
	}
	return best, found
}

// Stats implements engine.Engine.
func (m *memEngine) Stats() storeengine.Stats {
	return storeengine.Stats{
		Entries:    m.Len(),
		ValueBytes: m.ValueBytes(),
	}
}

// Checkpoint and Compact implement engine.Engine; the memory engine
// has nothing to make durable and nothing on disk to merge.
func (m *memEngine) Checkpoint() error { return nil }
func (m *memEngine) Compact() error    { return nil }

// Close implements engine.Engine. Closing only marks the engine:
// Get/Insert fail with ErrClosed while Iterate and Oldest keep
// working, so a final Export is still possible via the structures
// that remain in memory.
func (m *memEngine) Close() error {
	m.closed.Store(true)
	return nil
}

// Crash implements engine.Engine: a volatile engine has no on-disk
// state to abandon, so a crash is a close.
func (m *memEngine) Crash() { m.closed.Store(true) }

// RegisterTelemetry implements engine.Engine: per-shard occupancy
// gauges (speed_store_shard_entries).
func (m *memEngine) RegisterTelemetry(reg *telemetry.Registry) {
	for i := range m.shards {
		sh := m.shards[i]
		reg.NewGaugeFunc("speed_store_shard_entries", "dictionary entries per shard",
			func() float64 {
				sh.mu.Lock()
				n := len(sh.dict)
				sh.mu.Unlock()
				return float64(n)
			}, telemetry.L("shard", strconv.Itoa(i)))
	}
}

// obliviousLookupLocked scans every entry of one shard with a
// constant-time tag comparison, doing identical work for every entry
// regardless of where (or whether) the tag matches. Caller holds the
// shard lock inside the store enclave.
func obliviousLookupLocked(sh *shard, tag mle.Tag) *entry {
	var found *entry
	for k := range sh.dict {
		k := k
		match := subtle.ConstantTimeCompare(k[:], tag[:])
		// Branchless-ish select: always read the entry, conditionally
		// retain it.
		e := sh.dict[k]
		if match == 1 {
			found = e
		}
	}
	return found
}
