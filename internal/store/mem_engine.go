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
// ciphertext is held by reference outside enclave accounting. Each GET,
// HAS and PUT message enters the enclave exactly once, whatever its
// item count; oblivious lookups scan every shard for every tag, and
// eviction picks the globally least-recent entry.
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

// withEntry runs fn, inside the store enclave, on the tag's home shard
// and entry (nil when absent) under the shard lock. An oblivious engine
// scans every shard with identical per-entry work, for every tag of a
// message, so the access pattern reveals neither entry nor shard.
func (m *memEngine) withEntry(tag mle.Tag, fn func(sh *shard, e *entry)) {
	home := m.shardFor(tag)
	if !m.oblivious {
		home.mu.Lock()
		fn(home, home.dict[tag])
		home.mu.Unlock()
		return
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		e := obliviousLookupLocked(sh, tag)
		if sh == home {
			fn(sh, e)
		}
		sh.mu.Unlock()
	}
}

// Get implements engine.Engine. One entry of the store enclave does the
// message's dictionary accesses, sizes in hand to cut the reply prefix;
// the ciphertexts are copied out of untrusted memory outside it.
func (m *memEngine) Get(tags []mle.Tag, budget int) ([]storeengine.Lookup, error) {
	out := make([]storeengine.Lookup, 0, len(tags))
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		for _, tag := range tags {
			var l storeengine.Lookup
			fits := true
			m.withEntry(tag, func(sh *shard, e *entry) {
				switch {
				case e == nil:
				case m.expiredLocked(e):
					// Leave the stale entry for the caller to collect lazily.
					l.Status = storeengine.StatusExpired
				default:
					size := len(e.challenge) + len(e.wrappedKey) + len(e.blob)
					if fits = len(out) == 0 || size <= budget; !fits {
						return
					}
					budget -= size
					e.hits++
					if !m.oblivious {
						// LRU maintenance and freshness updates reveal
						// which entry was touched.
						sh.lru.MoveToFront(e.lruElem)
						e.lastTouch = m.now()
					}
					l = storeengine.Lookup{Status: storeengine.StatusHit, Record: m.recordLocked(e)}
				}
			})
			if !fits {
				return nil
			}
			out = append(out, l)
		}
		return nil
	})
	for i := range out {
		out[i].Record.Blob = append([]byte(nil), out[i].Record.Blob...)
	}
	return out, err
}

// Contains implements engine.Engine: pure existence probes with no hit
// count, LRU or freshness side effects, answered in one enclave entry
// like Get's accesses (and as uniformly when the engine is oblivious).
func (m *memEngine) Contains(tags []mle.Tag) ([]bool, error) {
	present := make([]bool, len(tags))
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		for i, tag := range tags {
			m.withEntry(tag, func(_ *shard, e *entry) {
				present[i] = e != nil && !m.expiredLocked(e)
			})
		}
		return nil
	})
	return present, err
}

// recordLocked copies an entry's metadata out, in one allocation;
// caller holds the shard lock and copies Blob outside the enclave.
func (m *memEngine) recordLocked(e *entry) storeengine.Record {
	n := len(e.challenge)
	meta := append(append(make([]byte, 0, n+len(e.wrappedKey)), e.challenge...), e.wrappedKey...)
	return storeengine.Record{
		Challenge:  meta[:n:n],
		WrappedKey: meta[n:],
		Blob:       e.blob,
		BlobSize:   int64(len(e.blob)),
		Owner:      e.owner,
		Hits:       e.hits,
		LastTouch:  e.lastTouch,
	}
}

// Insert implements engine.Engine. The untrusted side copies every
// item's ciphertext first (a duplicate's copy is dropped); one enclave
// entry then checks, charges and installs each item under its shard
// lock, so of two racing identical PUTs exactly one installs.
func (m *memEngine) Insert(items []storeengine.Item) ([]bool, error) {
	entries := make([]*entry, len(items))
	for i := range items {
		rec := &items[i].Record
		entries[i] = &entry{
			challenge:  append([]byte(nil), rec.Challenge...),
			wrappedKey: append([]byte(nil), rec.WrappedKey...),
			blob:       append([]byte(nil), rec.Blob...),
			owner:      rec.Owner,
			hits:       rec.Hits,
			lastTouch:  rec.LastTouch,
		}
	}
	installed := make([]bool, len(items))
	err := m.enclave.ECall(func() error {
		if m.closed.Load() {
			return ErrClosed
		}
		for i, e := range entries {
			tag := items[i].Tag
			sh := m.shardFor(tag)
			sh.mu.Lock()
			if _, dupe := sh.dict[tag]; !dupe {
				if err := m.enclave.Alloc(e.enclaveBytes()); err != nil {
					sh.mu.Unlock()
					return fmt.Errorf("metadata allocation: %w", err)
				}
				e.lruElem = sh.lru.PushFront(tag)
				sh.dict[tag] = e
				m.entries.Add(1)
				m.blobTotal.Add(int64(len(e.blob)))
				installed[i] = true
			}
			sh.mu.Unlock()
		}
		return nil
	})
	return installed, err
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
	var refs []storeengine.Item // reused across shards
	for _, sh := range m.shards {
		refs = refs[:0]
		err := m.enclave.ECall(func() error {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			for tag, e := range sh.dict {
				refs = append(refs, storeengine.Item{Tag: tag, Record: m.recordLocked(e)})
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, r := range refs {
			r.Record.Blob = append([]byte(nil), r.Record.Blob...)
			if !fn(r.Tag, r.Record) {
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
