// Package logengine is the persistent, log-structured storage engine
// behind store.Store: an append-only WAL of sealed records feeding an
// in-enclave memtable, flushed as immutable sorted segments, with a
// size-tiered background compactor, a per-segment key filter and
// sparse index, and a bounded hot-entry cache. The working set can
// exceed RAM: only the memtable, the cache, and the per-segment
// filters and sparse indexes stay resident.
//
// Trust model: the directory lives on untrusted media. Every record is
// sealed (enclave AEAD, bound to platform and measurement) before it
// is written, so the disk sees ciphertext and integrity-protected
// metadata only; anything read back is authenticated before use. CRCs
// on WAL frames and segment bodies distinguish crash damage (expected,
// recovered) from tampering (rejected loudly). Plaintext challenges
// and wrapped keys exist only inside enclave memory.
//
// Durability: under FsyncCommit (the default) an Insert or Remove is
// acknowledged only after the WAL frame is fsynced, so acknowledged
// operations survive kill -9 and power loss. FsyncInterval bounds loss
// to the sync interval; FsyncNone leaves it to the OS page cache.
// Recovery loads the manifest's segments (CRC-verified), refuses a
// directory none of whose segments this enclave can unseal, deletes
// orphan segment files from interrupted flushes or compactions, then
// replays the WAL — a torn tail is truncated, never applied.
//
// Popularity durability: hit counts and last-touch times for
// segment-resident records accumulate in an in-enclave touch overlay,
// persisted as compact walOpTouch WAL frames on flush, checkpoint and
// close, and baked into rewritten records by compaction — so hit
// counts survive a clean restart and WAL replay. Known approximation:
// touches since the last flush/checkpoint are lost on a crash (they
// are popularity metadata, never payload), and under enclave memory
// pressure a touch may be skipped, reverting a record's count to its
// last durably baked value.
package logengine

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
	"speed/internal/telemetry"
)

// Fsync is the WAL durability policy.
type Fsync int

const (
	// FsyncCommit syncs the WAL before acknowledging every mutation.
	FsyncCommit Fsync = iota
	// FsyncEvery syncs on a background interval.
	FsyncEvery
	// FsyncNone never syncs explicitly.
	FsyncNone
)

// ParseFsync maps the operator-facing policy names ("commit",
// "interval", "none"; "" defaults to commit) to a policy.
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "", "commit":
		return FsyncCommit, nil
	case "interval":
		return FsyncEvery, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("logengine: unknown fsync policy %q (want commit, interval or none)", s)
	}
}

func (f Fsync) String() string {
	switch f {
	case FsyncCommit:
		return "commit"
	case FsyncEvery:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return "unknown"
	}
}

// Defaults for zero Config fields.
const (
	DefaultMemtableBytes   = 4 << 20
	DefaultCacheBytes      = 4 << 20
	DefaultFsyncInterval   = 100 * time.Millisecond
	DefaultCompactInterval = 30 * time.Second
	// memRecOverhead approximates per-entry memtable bookkeeping
	// beyond the variable-length fields, charged against the enclave.
	memRecOverhead = 128
	// cacheRecOverhead is the same for hot-cache entries.
	cacheRecOverhead = 128
)

// Config configures an Engine.
type Config struct {
	// Dir is the engine's directory on (untrusted) storage. Created if
	// missing. Required.
	Dir string
	// Enclave hosts the memtable, cache and indexes, and seals
	// everything that leaves them. Required.
	Enclave *enclave.Enclave
	// MemtableBytes bounds the in-enclave write buffer; reaching it
	// triggers a flush to a sorted segment. 0 means 4 MiB.
	MemtableBytes int64
	// CacheBytes bounds the in-enclave hot-entry read cache in front
	// of the segments. 0 means 4 MiB.
	CacheBytes int64
	// Fsync is the WAL durability policy.
	Fsync Fsync
	// FsyncInterval is the background sync period under FsyncEvery;
	// 0 means 100ms.
	FsyncInterval time.Duration
	// CompactInterval is how often the background compactor runs the
	// tiering policy; 0 means 30s, negative disables the background
	// loop (Compact still works).
	CompactInterval time.Duration
	// Oblivious makes lookups over the in-enclave structures
	// (memtable, cache) access-pattern uniform and disables recency
	// and popularity maintenance. Segment reads go to untrusted disk,
	// whose access pattern is observable regardless; see DESIGN.md.
	Oblivious bool
	// TTL expires records not touched within the duration; 0 disables.
	TTL time.Duration
	// Now is the clock; nil means time.Now.
	Now func() time.Time
	// Logf receives recovery and compaction diagnostics; nil discards.
	Logf func(format string, args ...any)
}

// memRec is one memtable entry: the newest state of a tag that has not
// yet reached a segment.
type memRec struct {
	dead bool
	rec  storeengine.Record // owned copies; Blob inline
}

func (r *memRec) bytes() int64 {
	if r.dead {
		return 32 + memRecOverhead
	}
	return 32 + memRecOverhead + int64(len(r.rec.Challenge)+len(r.rec.WrappedKey)+len(r.rec.Blob))
}

// cacheRec is one hot-cache entry fronting the segments.
type cacheRec struct {
	tag  mle.Tag
	rec  storeengine.Record
	elem *list.Element
}

func (r *cacheRec) bytes() int64 {
	return 32 + cacheRecOverhead + int64(len(r.rec.Challenge)+len(r.rec.WrappedKey)+len(r.rec.Blob))
}

// touchRec is one touch-overlay entry: the authoritative popularity for
// a segment-resident record.
type touchRec struct {
	hits int64
	last time.Time
}

// touchRecBytes is the enclave charge for one overlay entry (map key +
// fields + bookkeeping).
const touchRecBytes = 96

// Engine is the log-structured engine. It implements
// store/engine.Engine. A single mutex serializes mutations and
// metadata reads; segment file reads happen under it too (v1 keeps the
// locking simple — the key filters keep most lookups off the files and
// the bounded sparse-index scan keeps the rest short).
type Engine struct {
	cfg Config

	mu        sync.Mutex
	closed    bool
	wal       *wal
	memtable  map[mle.Tag]*memRec
	memBytes  int64      // enclave-charged memtable footprint
	segments  []*segment // oldest first
	nextSegID uint64

	cache      map[mle.Tag]*cacheRec
	cacheLRU   *list.List // front = most recent
	cacheBytes int64

	// touched overlays popularity (hits, last touch) onto records whose
	// newest durable copy lives in a segment: cache hits and segment
	// reads update it instead of rewriting the record. Flush and
	// checkpoint persist it as walOpTouch frames; compaction bakes it
	// into the rewritten records. touchDirty marks entries changed since
	// they last reached the WAL.
	touched    map[mle.Tag]*touchRec
	touchDirty map[mle.Tag]bool

	entries    int64
	valueBytes int64
	st         storeengine.Stats // activity counters (occupancy filled on snapshot)

	// compactHook, when set, runs between writing a merged segment and
	// committing the manifest; tests use it to simulate a crash at the
	// most delicate point.
	compactHook func()
	// compactSeconds times each merge; nil (a no-op) until
	// RegisterTelemetry.
	compactSeconds *telemetry.Histogram

	stopBg chan struct{}
	bgDone sync.WaitGroup
}

var _ storeengine.Engine = (*Engine)(nil)

// Open loads (or initialises) the engine at cfg.Dir, recovering state:
// manifest-listed segments are opened and CRC-verified, orphan segment
// files are deleted, and the WAL is replayed into the memtable with
// any torn tail truncated.
func Open(cfg Config) (*Engine, error) {
	if cfg.Enclave == nil {
		return nil, errors.New("logengine: Config.Enclave is required")
	}
	if cfg.Dir == "" {
		return nil, errors.New("logengine: Config.Dir is required")
	}
	if cfg.MemtableBytes <= 0 {
		cfg.MemtableBytes = DefaultMemtableBytes
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = DefaultFsyncInterval
	}
	if cfg.CompactInterval == 0 {
		cfg.CompactInterval = DefaultCompactInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		memtable:   make(map[mle.Tag]*memRec),
		cache:      make(map[mle.Tag]*cacheRec),
		cacheLRU:   list.New(),
		touched:    make(map[mle.Tag]*touchRec),
		touchDirty: make(map[mle.Tag]bool),
		stopBg:     make(chan struct{}),
	}
	if err := e.recover(); err != nil {
		e.closeFiles()
		return nil, err
	}
	e.startBackground()
	return e, nil
}

// recover rebuilds in-memory state from the directory.
func (e *Engine) recover() error {
	names, err := readManifest(e.cfg.Dir)
	if err != nil {
		return err
	}
	listed := make(map[string]bool, len(names))
	segKeys := make([][]keyHdr, len(names))
	for i, name := range names {
		listed[name] = true
		id, _ := parseSegmentName(name)
		seg, err := openSegment(filepath.Join(e.cfg.Dir, name), id, func(k keyHdr) {
			segKeys[i] = append(segKeys[i], k)
		})
		if err != nil {
			return err
		}
		e.segments = append(e.segments, seg)
		if id >= e.nextSegID {
			e.nextSegID = id + 1
		}
	}
	if err := e.checkSealIdentity(); err != nil {
		return err
	}
	// Remove orphan segment files: a flush or compaction that died
	// after creating its output but before committing the manifest.
	entriesDir, err := os.ReadDir(e.cfg.Dir)
	if err != nil {
		return err
	}
	for _, de := range entriesDir {
		id, ok := parseSegmentName(de.Name())
		if !ok || listed[de.Name()] {
			continue
		}
		if id >= e.nextSegID {
			e.nextSegID = id + 1 // never reuse an orphan's id
		}
		e.cfg.Logf("logengine: removing orphan segment %s (interrupted flush/compaction)", de.Name())
		if err := os.Remove(filepath.Join(e.cfg.Dir, de.Name())); err != nil {
			return err
		}
	}

	w, err := openWAL(filepath.Join(e.cfg.Dir, walName))
	if err != nil {
		return err
	}
	e.wal = w
	replayed, torn, err := w.replay(e.cfg.Enclave, func(op walOp) {
		if op.op == walOpTouch {
			// Popularity for a segment-resident record. If the tag has a
			// newer WAL state it wins: a live memtable record carries its
			// own counters and a tombstone makes the touch moot.
			if mr, had := e.memtable[op.tag]; had {
				if !mr.dead {
					mr.rec.Hits = op.rec.Hits
					mr.rec.LastTouch = op.rec.LastTouch
				}
				return
			}
			e.noteTouch(op.tag, op.rec.Hits, op.rec.LastTouch)
			return
		}
		prev, had := e.memtable[op.tag]
		var nr *memRec
		if op.op == walOpDelete {
			nr = &memRec{dead: true}
		} else {
			nr = &memRec{rec: op.rec}
		}
		e.dropTouch(op.tag)
		if had {
			e.memBytes -= prev.bytes()
		}
		e.memtable[op.tag] = nr
		e.memBytes += nr.bytes()
	})
	if err != nil {
		return err
	}
	e.st.Replayed = replayed
	if torn {
		e.st.TornTails++
		e.cfg.Logf("logengine: truncated torn wal tail after %d intact records", replayed)
	}
	if err := e.cfg.Enclave.Alloc(e.memBytes); err != nil {
		return fmt.Errorf("logengine: memtable allocation during recovery: %w", err)
	}

	// Compute live occupancy from the merged view: newest state wins
	// (memtable over segments, later segments over earlier). The
	// per-segment key lists are transient — header-only, no payloads —
	// and dropped when this returns.
	seen := make(map[mle.Tag]bool, len(e.memtable))
	for tag, mr := range e.memtable {
		seen[tag] = true
		if !mr.dead {
			e.entries++
			e.valueBytes += int64(len(mr.rec.Blob))
		}
	}
	for i := len(segKeys) - 1; i >= 0; i-- { // newest segment first
		for _, k := range segKeys[i] {
			if seen[k.tag] {
				continue
			}
			seen[k.tag] = true
			if !k.dead {
				e.entries++
				e.valueBytes += k.blobSize
			}
		}
	}
	if replayed > 0 || len(e.segments) > 0 {
		e.cfg.Logf("logengine: recovered %d entries (%d segments, %d wal records replayed)",
			e.entries, len(e.segments), replayed)
	}
	return nil
}

// identityProbes is how many live records checkSealIdentity tries per
// segment, and how many failures (with no success) it takes as proof
// of a foreign directory.
const identityProbes = 4

// checkSealIdentity authenticates a few live records from each segment
// until one unseals. Seals are bound to the platform seed and the store
// enclave's measurement, so under the wrong identity every record
// fails — and without this check the store would open "fine", answer
// every lookup dangling and empty itself one recompute at a time. One
// record that unseals proves the identity; failures beside it are
// per-record damage, which Get reports as it meets them. Fewer than
// identityProbes failures prove nothing either way (a store holding one
// record the disk tampered with must still open, so that the record is
// recomputed), so the directory is refused only on identityProbes or
// more failures and no success. It runs before recovery deletes or
// truncates anything.
func (e *Engine) checkSealIdentity() error {
	failed := 0
	for _, s := range e.segments {
		c := s.newCursor()
		for n := 0; c.valid && n < identityProbes; c.next() {
			if c.dead {
				continue
			}
			if _, err := unsealRecord(e.cfg.Enclave, c.sealed); err == nil {
				return nil
			}
			n++
			failed++
		}
		if c.err != nil {
			return c.err
		}
	}
	if failed >= identityProbes {
		return fmt.Errorf("logengine: %s: none of the %d segment records tried authenticates: the directory was sealed under a different platform seed or store measurement (nothing was modified)", e.cfg.Dir, failed)
	}
	return nil
}

// startBackground launches the interval-fsync and compaction loops.
func (e *Engine) startBackground() {
	if e.cfg.Fsync == FsyncEvery {
		e.bgDone.Add(1)
		go func() {
			defer e.bgDone.Done()
			t := time.NewTicker(e.cfg.FsyncInterval)
			defer t.Stop()
			for {
				select {
				case <-e.stopBg:
					return
				case <-t.C:
					e.mu.Lock()
					if !e.closed {
						if err := e.wal.sync(); err != nil {
							e.cfg.Logf("logengine: interval fsync: %v", err)
						}
					}
					e.mu.Unlock()
				}
			}
		}()
	}
	if e.cfg.CompactInterval > 0 {
		e.bgDone.Add(1)
		go func() {
			defer e.bgDone.Done()
			t := time.NewTicker(e.cfg.CompactInterval)
			defer t.Stop()
			for {
				select {
				case <-e.stopBg:
					return
				case <-t.C:
					if err := e.Compact(); err != nil && !errors.Is(err, storeengine.ErrClosed) {
						e.cfg.Logf("logengine: compaction: %v", err)
					}
				}
			}
		}()
	}
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "log" }

// Get implements engine.Engine: memtable, then hot cache, then
// segments newest-first through their sparse indexes. One enclave entry
// locates the message's tags in the in-enclave tiers and, if those
// decide them all, answers; otherwise the segment payloads of the rest
// are read outside and a second entry unseals them and answers. The
// reads stop with the record that takes them past budget (a sealed
// payload is no smaller than what it answers), so a message costs at
// most budget plus one record of disk reads and heap.
func (e *Engine) Get(tags []mle.Tag, budget int) ([]storeengine.Lookup, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, storeengine.ErrClosed
	}
	// place is where a tag's newest version lives, if anywhere.
	type place struct {
		rec    *storeengine.Record // in the memtable or the hot cache
		cr     *cacheRec           // its hot-cache entry
		dead   bool                // a memtable tombstone
		sealed []byte              // the payload of a segment record
	}
	var (
		at               = make([]place, len(tags))
		out              = make([]storeengine.Lookup, 0, len(tags))
		resident, absent int
	)
	// answer walks the tags in order, inside the enclave, counting and
	// touching each hit before the one that would overflow the budget.
	// Segment records enter the hot cache once the walk is over, so an
	// insert cannot evict an entry the walk has yet to reach.
	answer := func() error {
		defer func() {
			for i := range out {
				if at[i].sealed != nil && out[i].Status == storeengine.StatusHit && !e.cfg.Oblivious {
					e.cacheInsert(tags[i], out[i].Record)
				}
			}
		}()
		for i, tag := range tags[:len(at)] {
			var l storeengine.Lookup
			p, rec := &at[i], at[i].rec
			if p.sealed != nil {
				srec, err := unsealRecord(e.cfg.Enclave, p.sealed)
				if err != nil {
					// Authenticated storage failed us: the policy layer
					// drops a dangling entry and the caller recomputes.
					e.cfg.Logf("logengine: record %x failed authentication: %v", tag[:8], err)
					out = append(out, storeengine.Lookup{Status: storeengine.StatusDangling})
					continue
				}
				e.applyTouch(tag, &srec)
				rec = &srec
			}
			switch {
			case rec == nil: // deleted, or in no segment either
			case e.expired(rec.LastTouch):
				l.Status = storeengine.StatusExpired
			default:
				size := len(rec.Challenge) + len(rec.WrappedKey) + len(rec.Blob)
				if len(out) > 0 && size > budget {
					return nil
				}
				budget -= size
				if !e.cfg.Oblivious {
					rec.Hits++
					rec.LastTouch = e.cfg.Now()
					if p.cr != nil {
						e.cacheLRU.MoveToFront(p.cr.elem)
					}
					if p.cr != nil || p.sealed != nil {
						e.noteTouch(tag, rec.Hits, rec.LastTouch)
					}
				}
				// A segment record's slices alias Unseal's fresh buffer.
				l = storeengine.Lookup{Status: storeengine.StatusHit, Record: *rec}
				if p.sealed == nil {
					l.Record = copyRecord(*rec)
					e.st.CacheHits++
				}
			}
			out = append(out, l)
		}
		return nil
	}
	err := e.cfg.Enclave.ECall(func() error {
		for i, tag := range tags {
			p := &at[i]
			if mr, ok := lookup(e, e.memtable, tag); ok && mr.dead {
				p.dead = true
			} else if ok {
				p.rec = &mr.rec
			} else if cr, ok := lookup(e, e.cache, tag); ok {
				p.rec, p.cr = &cr.rec, cr
			}
			if p.rec != nil {
				resident++
			} else if !p.dead {
				absent++
			}
		}
		if absent == 0 {
			return answer()
		}
		return nil
	})
	if err != nil || absent == 0 {
		return out, err
	}

	// Consult the segments (untrusted disk), newest first, for every tag
	// the tiers do not decide. Unsealing happens back inside the enclave.
	onDisk, read := false, 0
	for i := range at {
		if i > 0 && read > budget {
			at = at[:i] // the answers end here at the latest
			break
		}
		if p := &at[i]; p.rec == nil && !p.dead {
			e.st.CacheMisses++
			sealed, found, dead, err := e.findLocked(tags[i], true)
			if err != nil {
				return nil, err
			}
			if found && !dead {
				p.sealed, onDisk = sealed, true
				read += len(sealed)
			}
		}
	}
	if !onDisk && resident == 0 {
		return out[:len(at)], nil // every tag is a miss
	}
	return out, e.cfg.Enclave.ECall(answer)
}

// findLocked looks tag up in the segments, newest first, returning the
// newest version's state (and its sealed payload when wantSealed is
// set). A segment whose fence or key filter excludes the tag costs no
// file read, so a tag no segment holds — every GET that misses, every
// PUT's first-version-wins check — usually costs none at all. Caller
// holds mu.
func (e *Engine) findLocked(tag mle.Tag, wantSealed bool) (sealed []byte, found, dead bool, err error) {
	for i := len(e.segments) - 1; i >= 0; i-- {
		s := e.segments[i]
		if !s.mayContain(tag) {
			e.st.FilterSkips++
			continue
		}
		e.st.SegmentProbes++
		sealed, found, dead, err = s.find(tag, wantSealed)
		if err != nil || found {
			return sealed, found, dead, err
		}
	}
	return nil, false, false, nil
}

// lookup finds tag in the memtable or the hot cache; under Oblivious it
// scans every entry with uniform work.
func lookup[V any](e *Engine, in map[mle.Tag]*V, tag mle.Tag) (*V, bool) {
	if !e.cfg.Oblivious {
		v, ok := in[tag]
		return v, ok
	}
	var found *V
	for k, v := range in {
		if constantTimeTagEq(k, tag) {
			found = v
		}
	}
	return found, found != nil
}

func (e *Engine) expired(touch time.Time) bool {
	return e.cfg.TTL > 0 && e.cfg.Now().Sub(touch) > e.cfg.TTL
}

// cacheInsert places a record in the hot cache, evicting from the LRU
// tail to stay within budget. Caller holds mu (inside the enclave or
// right after a segment read).
func (e *Engine) cacheInsert(tag mle.Tag, rec storeengine.Record) {
	if old, ok := e.cache[tag]; ok {
		e.cacheBytes -= old.bytes()
		e.cfg.Enclave.Free(old.bytes())
		e.cacheLRU.Remove(old.elem)
		delete(e.cache, tag)
	}
	cr := &cacheRec{tag: tag, rec: copyRecord(rec)}
	if cr.bytes() > e.cfg.CacheBytes {
		return // larger than the whole budget; don't thrash
	}
	if err := e.cfg.Enclave.Alloc(cr.bytes()); err != nil {
		return // enclave memory pressure: serving without caching is fine
	}
	cr.elem = e.cacheLRU.PushFront(cr)
	e.cache[tag] = cr
	e.cacheBytes += cr.bytes()
	for e.cacheBytes > e.cfg.CacheBytes {
		back := e.cacheLRU.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheRec)
		e.cacheLRU.Remove(back)
		delete(e.cache, victim.tag)
		e.cacheBytes -= victim.bytes()
		e.cfg.Enclave.Free(victim.bytes())
	}
}

// noteTouch records the authoritative popularity for a segment-resident
// record. Under enclave memory pressure a new entry is skipped — the
// overlay is metadata, and losing a touch only reverts hits to the last
// durably baked value. Caller holds mu; never called under Oblivious
// (no popularity maintenance there).
func (e *Engine) noteTouch(tag mle.Tag, hits int64, last time.Time) {
	tr, ok := e.touched[tag]
	if !ok {
		if err := e.cfg.Enclave.Alloc(touchRecBytes); err != nil {
			return
		}
		tr = &touchRec{}
		e.touched[tag] = tr
	}
	tr.hits, tr.last = hits, last
	e.touchDirty[tag] = true
}

// dropTouch removes a tag's overlay entry (record deleted or rewritten
// with popularity baked in). Caller holds mu.
func (e *Engine) dropTouch(tag mle.Tag) {
	if _, ok := e.touched[tag]; ok {
		delete(e.touched, tag)
		e.cfg.Enclave.Free(touchRecBytes)
	}
	delete(e.touchDirty, tag)
}

// applyTouch overlays recorded popularity onto a record read from a
// segment. Max semantics keep it monotone no matter how overlay and
// baked copies interleave across flushes and compactions.
func (e *Engine) applyTouch(tag mle.Tag, rec *storeengine.Record) {
	if tr, ok := e.touched[tag]; ok {
		if tr.hits > rec.Hits {
			rec.Hits = tr.hits
		}
		if tr.last.After(rec.LastTouch) {
			rec.LastTouch = tr.last
		}
	}
}

// appendTouchesLocked writes walOpTouch frames for overlay entries —
// every entry when all is set (the WAL was just truncated), otherwise
// only those dirty since they last reached the log. Caller holds mu and
// applies the fsync policy.
func (e *Engine) appendTouchesLocked(all bool) error {
	emit := func(tag mle.Tag, tr *touchRec) error {
		err := e.wal.append(e.cfg.Enclave, walOpTouch, tag, storeengine.Record{Hits: tr.hits, LastTouch: tr.last})
		if err != nil {
			return err
		}
		e.st.WALRecords++
		return nil
	}
	if all {
		for tag, tr := range e.touched {
			if err := emit(tag, tr); err != nil {
				return err
			}
		}
	} else {
		for tag := range e.touchDirty {
			tr, ok := e.touched[tag]
			if !ok {
				continue
			}
			if err := emit(tag, tr); err != nil {
				return err
			}
		}
	}
	e.touchDirty = make(map[mle.Tag]bool)
	return nil
}

// cacheDelete drops a tag from the hot cache.
func (e *Engine) cacheDelete(tag mle.Tag) {
	if cr, ok := e.cache[tag]; ok {
		e.cacheLRU.Remove(cr.elem)
		delete(e.cache, tag)
		e.cacheBytes -= cr.bytes()
		e.cfg.Enclave.Free(cr.bytes())
	}
}

// Insert implements engine.Engine: every fresh item's WAL record is
// appended, one fsync (per policy) covers the message, one enclave
// entry applies it to the memtable. First version wins, within the
// message too. A message is cut after a record that fills the memtable,
// which so flushes exactly as with the items arriving one by one.
func (e *Engine) Insert(items []storeengine.Item) ([]bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, storeengine.ErrClosed
	}
	installed := make([]bool, len(items))
	var err error
	for n, done := 0, 0; done < len(items) && err == nil; done += n {
		n, err = e.insertRunLocked(items[done:], installed[done:])
	}
	return installed, err
}

// insertRunLocked inserts the items up to and including the one that
// fills the memtable — the flush that follows truncates the WAL, so
// what it covers is synced and applied first — and reports how many
// that was. Caller holds mu.
func (e *Engine) insertRunLocked(items []storeengine.Item, installed []bool) (n int, failed error) {
	var (
		fresh   = make([]int, 0, len(items)) // the items in the WAL
		claimed = make(map[mle.Tag]bool)     // their tags
		mem     = e.memBytes                 // at most this with them applied
	)
	for n < len(items) && failed == nil && (n == 0 || mem < e.cfg.MemtableBytes) {
		tag, rec := items[n].Tag, items[n].Record
		exists, err := e.existsLocked(tag)
		if err == nil && !exists && !claimed[tag] {
			if err = e.wal.append(e.cfg.Enclave, walOpPut, tag, rec); err == nil {
				e.st.WALRecords++
				claimed[tag] = true
				fresh = append(fresh, n)
				mem += (&memRec{rec: rec}).bytes()
			}
		}
		failed = err // what the WAL already carries is still applied
		n++
	}
	// Nothing is applied, so nothing acknowledged, before the one sync.
	if len(fresh) > 0 && e.cfg.Fsync == FsyncCommit {
		if err := e.wal.sync(); err != nil {
			return n, fmt.Errorf("logengine: wal fsync: %w", err)
		}
	}
	err := e.cfg.Enclave.ECall(func() error {
		for _, i := range fresh {
			tag, mr := items[i].Tag, &memRec{rec: copyRecord(items[i].Record)}
			if prev, had := e.memtable[tag]; had {
				// Overwriting a tombstone left by an earlier Remove.
				e.memBytes -= prev.bytes()
				e.cfg.Enclave.Free(prev.bytes())
			}
			if err := e.cfg.Enclave.Alloc(mr.bytes()); err != nil {
				return fmt.Errorf("metadata allocation: %w", err)
			}
			e.memtable[tag] = mr
			e.memBytes += mr.bytes()
			e.entries++
			e.valueBytes += mr.rec.BlobSize
			e.dropTouch(tag) // a fresh record starts its popularity over
			installed[i] = true
		}
		return nil
	})
	if err != nil {
		// The WAL already carries the unapplied records; a replay would
		// resurrect them. Append compensating deletes so the log and the
		// memory state agree.
		for _, i := range fresh {
			if !installed[i] && e.wal.append(e.cfg.Enclave, walOpDelete, items[i].Tag, storeengine.Record{}) != nil {
				break
			}
		}
		if e.cfg.Fsync == FsyncCommit {
			_ = e.wal.sync() // best effort: the insert already failed
		}
		return n, err
	}
	if failed == nil && e.memBytes >= e.cfg.MemtableBytes {
		if err := e.flushLocked(); err != nil {
			failed = fmt.Errorf("logengine: flush: %w", err)
		}
	}
	return n, failed
}

// Contains implements engine.Engine: existence probes over the memtable
// (one enclave entry for the message) and the segments' filters and
// indexes, with no hit counting, cache promotion or recency updates.
// Like existsLocked it ignores TTL — the engine's index has no cheap
// TTL view — so a stale record reports present; callers treat the
// answers as hints and tolerate a later Get missing.
func (e *Engine) Contains(tags []mle.Tag) ([]bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, storeengine.ErrClosed
	}
	present := make([]bool, len(tags))
	probe := make([]int, 0, len(tags)) // the tags the memtable does not decide
	if err := e.cfg.Enclave.ECall(func() error {
		for i, tag := range tags {
			if mr, ok := lookup(e, e.memtable, tag); ok {
				present[i] = !mr.dead
			} else {
				probe = append(probe, i)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, i := range probe {
		_, found, dead, err := e.findLocked(tags[i], false)
		if err != nil {
			return nil, err
		}
		present[i] = found && !dead
	}
	return present, nil
}

// existsLocked reports whether a live record for tag exists anywhere
// (memtable, segments), ignoring TTL — duplicate suppression is by
// presence, as in the memory engine.
func (e *Engine) existsLocked(tag mle.Tag) (bool, error) {
	if mr, ok := e.memtable[tag]; ok {
		return !mr.dead, nil
	}
	_, found, dead, err := e.findLocked(tag, false)
	return found && !dead, err
}

// Remove implements engine.Engine: locate the live record (its owner
// and size settle quota accounting), append a delete to the WAL, and
// tombstone the memtable.
func (e *Engine) Remove(tag mle.Tag) (storeengine.Record, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return storeengine.Record{}, false, storeengine.ErrClosed
	}
	var meta storeengine.Record
	if mr, ok := e.memtable[tag]; ok {
		if mr.dead {
			return storeengine.Record{}, false, nil
		}
		meta = mr.rec
	} else {
		sealed, found, dead, err := e.findLocked(tag, true)
		if err != nil || !found || dead {
			return storeengine.Record{}, false, err
		}
		if meta, err = unsealRecord(e.cfg.Enclave, sealed); err != nil {
			// Unreadable: still tombstone it so it stops shadowing, but
			// report unknown metadata.
			meta = storeengine.Record{}
		}
		e.applyTouch(tag, &meta)
	}
	meta.Challenge, meta.WrappedKey, meta.Blob = nil, nil, nil
	if err := e.wal.append(e.cfg.Enclave, walOpDelete, tag, storeengine.Record{}); err != nil {
		return storeengine.Record{}, false, err
	}
	if e.cfg.Fsync == FsyncCommit {
		if err := e.wal.sync(); err != nil {
			return storeengine.Record{}, false, err
		}
	}
	e.st.WALRecords++
	nr := &memRec{dead: true}
	_ = e.cfg.Enclave.ECall(func() error {
		if prev, had := e.memtable[tag]; had {
			e.memBytes -= prev.bytes()
			e.cfg.Enclave.Free(prev.bytes())
		}
		_ = e.cfg.Enclave.Alloc(nr.bytes()) // the tombstone is recorded regardless
		e.memtable[tag] = nr
		e.memBytes += nr.bytes()
		return nil
	})
	e.cacheDelete(tag)
	e.dropTouch(tag)
	e.entries--
	e.valueBytes -= meta.BlobSize
	return meta, true, nil
}

// flushLocked writes the memtable (live records and tombstones, sorted
// by tag) as a new immutable segment, commits it via the manifest, and
// truncates the WAL. Caller holds mu.
//
// Crash ordering: segment write + fsync → directory fsync → manifest
// swap (tmp + rename + dir fsync) → WAL truncate. A crash before the
// manifest swap leaves an orphan segment (deleted at recovery) and an
// intact WAL; a crash after it leaves the segment live and a stale WAL
// whose replay re-applies the same records idempotently.
func (e *Engine) flushLocked() error {
	if len(e.memtable) == 0 {
		return nil
	}
	records := make([]segRecord, 0, len(e.memtable))
	var sealErr error
	err := e.cfg.Enclave.ECall(func() error {
		for tag, mr := range e.memtable {
			sr := segRecord{tag: tag, dead: mr.dead}
			if !mr.dead {
				sealed, err := sealRecord(e.cfg.Enclave, mr.rec)
				if err != nil {
					sealErr = err
					return err
				}
				sr.blob = mr.rec.BlobSize
				sr.sealed = sealed
			}
			records = append(records, sr)
		}
		return nil
	})
	if err != nil {
		if sealErr != nil {
			return sealErr
		}
		return err
	}
	sort.Slice(records, func(i, j int) bool {
		return bytes.Compare(records[i].tag[:], records[j].tag[:]) < 0
	})

	id := e.nextSegID
	name := segmentName(id)
	path := filepath.Join(e.cfg.Dir, name)
	err = writeSegment(path, func() (segRecord, bool, error) {
		if len(records) == 0 {
			return segRecord{}, false, nil
		}
		r := records[0]
		records = records[1:]
		return r, true, nil
	})
	if err != nil {
		return err
	}
	if err := syncDir(e.cfg.Dir); err != nil {
		return err
	}
	seg, err := openSegment(path, id, nil)
	if err != nil {
		os.Remove(path)
		return err
	}
	if err := writeManifest(e.cfg.Dir, append(segmentNames(e.segments), name)); err != nil {
		if cerr := seg.close(); cerr != nil {
			e.cfg.Logf("logengine: close orphan segment: %v", cerr)
		}
		os.Remove(path)
		return err
	}
	e.segments = append(e.segments, seg)
	e.nextSegID = id + 1
	if err := e.wal.reset(); err != nil {
		return err
	}
	e.cfg.Enclave.Free(e.memBytes)
	e.memtable = make(map[mle.Tag]*memRec)
	e.memBytes = 0
	e.st.Flushes++
	// The truncate discarded any persisted touch frames; re-emit the
	// whole overlay so segment-resident popularity still survives a
	// restart. (Memtable popularity was just baked into the segment.)
	if len(e.touched) > 0 {
		if err := e.appendTouchesLocked(true); err != nil {
			return err
		}
		if e.cfg.Fsync == FsyncCommit {
			return e.wal.sync()
		}
	}
	return nil
}

// copyRecord deep-copies a record so callers own what they receive and
// the engine owns what it keeps.
func copyRecord(rec storeengine.Record) storeengine.Record {
	out := rec
	out.Challenge = append([]byte(nil), rec.Challenge...)
	out.WrappedKey = append([]byte(nil), rec.WrappedKey...)
	out.Blob = append([]byte(nil), rec.Blob...)
	out.BlobSize = int64(len(rec.Blob))
	return out
}

// constantTimeTagEq compares tags with uniform work.
func constantTimeTagEq(a, b mle.Tag) bool {
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}

// Len implements engine.Engine.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.entries)
}

// ValueBytes implements engine.Engine.
func (e *Engine) ValueBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.valueBytes
}

// Iterate implements engine.Engine: a k-way merge over the memtable
// (sorted transiently) and every segment cursor, newest state winning,
// tombstones skipped. Memory stays bounded by the memtable keys plus
// one record per open cursor; segment payloads stream from disk one
// record at a time, so iteration works on stores larger than RAM.
//
// The engine lock is held for the whole walk (mutations would
// invalidate the cursors), so fn must not call back into the engine.
func (e *Engine) Iterate(fn func(tag mle.Tag, rec storeengine.Record) bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.iterateLocked(fn)
}

func (e *Engine) iterateLocked(fn func(tag mle.Tag, rec storeengine.Record) bool) error {
	memKeys := make([]mle.Tag, 0, len(e.memtable))
	for tag := range e.memtable {
		memKeys = append(memKeys, tag)
	}
	sort.Slice(memKeys, func(i, j int) bool {
		return bytes.Compare(memKeys[i][:], memKeys[j][:]) < 0
	})
	// Two sorted streams: the memtable's keys and the segments' merged
	// view (newest segment wins a tag). The smaller head goes next; on a
	// tie the memtable, the newest tier of all, wins and the segments'
	// version is skipped.
	it := newMergeIter(e.segments)
	seg, err := it.next()
	for err == nil && (len(memKeys) > 0 || seg != nil) {
		cmp := -1
		if len(memKeys) == 0 {
			cmp = 1
		} else if seg != nil {
			cmp = bytes.Compare(memKeys[0][:], seg.tag[:])
		}
		var (
			tag  mle.Tag
			rec  storeengine.Record
			live bool
		)
		if cmp <= 0 {
			tag, memKeys = memKeys[0], memKeys[1:]
			if mr := e.memtable[tag]; !mr.dead {
				rec, live = copyRecord(mr.rec), true
			}
		} else if tag = seg.tag; !seg.dead {
			var uerr error
			if rec, uerr = unsealRecord(e.cfg.Enclave, seg.sealed); uerr != nil {
				// Skip unreadable records rather than abort a whole
				// export; Get on this tag will surface dangling.
				e.cfg.Logf("logengine: iterate: record %x failed authentication: %v", tag[:8], uerr)
			} else {
				e.applyTouch(tag, &rec)
				live = true
			}
		}
		if cmp >= 0 {
			seg, err = it.next()
		}
		if live && !e.expired(rec.LastTouch) && !fn(tag, rec) {
			return nil
		}
	}
	return err
}

// Oldest implements engine.Engine by scanning the merged view for the
// least recently touched record. O(n) over record headers and seals —
// LRU eviction against a disk-backed store is discouraged (size caps
// belong to the memory engine), but the semantics hold.
func (e *Engine) Oldest() (mle.Tag, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var (
		best  mle.Tag
		bestT time.Time
		found bool
	)
	_ = e.iterateLocked(func(tag mle.Tag, rec storeengine.Record) bool {
		if !found || rec.LastTouch.Before(bestT) {
			best, bestT, found = tag, rec.LastTouch, true
		}
		return true
	})
	return best, found
}

// Stats implements engine.Engine.
func (e *Engine) Stats() storeengine.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.st
	st.Entries = int(e.entries)
	st.ValueBytes = e.valueBytes
	st.WALBytes = e.wal.size
	st.WALSyncs = e.wal.syncs
	st.Segments = len(e.segments)
	st.SegmentBytes = 0
	for _, s := range e.segments {
		st.SegmentBytes += s.size
	}
	if lo, hi, ok := pickRun(e.segments, e.cfg.MemtableBytes); ok {
		// What Compact would merge first; its output may make more
		// eligible.
		for _, s := range e.segments[lo:hi] {
			st.CompactionDebtBytes += s.size
		}
	}
	return st
}

// Checkpoint implements engine.Engine: flush the memtable (which
// truncates the WAL) and fsync, so every acknowledged operation is in
// a durable segment regardless of fsync policy. Popularity goes with
// it: memtable hit counts are baked into the flushed segment and any
// still-dirty touch-overlay entries are appended as walOpTouch frames
// before the sync, so hit counts survive a restart.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return storeengine.ErrClosed
	}
	if err := e.flushLocked(); err != nil {
		return err
	}
	if err := e.appendTouchesLocked(false); err != nil {
		return err
	}
	return e.wal.sync()
}

// Compact runs the size-tiered merge policy to its fixed point: while
// some run of age-adjacent segments of one size class is long enough
// it is merged into one (see compact.go), dropping shadowed versions
// and, when the run reaches the oldest segment, tombstones. It does
// not merge everything: afterwards no eligible run is left, which may
// well mean several segments. Merges run under the engine lock (v1
// trades concurrency for simplicity).
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compactLocked()
}

// Close implements engine.Engine: stop background work, flush, and
// release the files. A clean close leaves an empty WAL, so the next
// Open replays nothing.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	flushErr := e.flushLocked()
	if flushErr == nil {
		flushErr = e.appendTouchesLocked(false)
	}
	if flushErr == nil {
		flushErr = e.wal.sync()
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stopBg)
	e.bgDone.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	closeErr := e.closeFiles()
	e.releaseMemoryLocked()
	return errors.Join(flushErr, closeErr)
}

// closeFiles releases the WAL's and the segments' file handles.
func (e *Engine) closeFiles() error {
	var closeErr error
	if e.wal != nil {
		if err := e.wal.close(); err != nil {
			closeErr = errors.Join(closeErr, fmt.Errorf("logengine: close wal: %w", err))
		}
	}
	for _, s := range e.segments {
		if err := s.close(); err != nil {
			closeErr = errors.Join(closeErr, fmt.Errorf("logengine: close segment %s: %w", filepath.Base(s.path), err))
		}
	}
	return closeErr
}

// Crash simulates kill -9 for tests and benchmarks: file handles are
// abandoned without flushing the memtable, syncing the WAL, or
// committing anything. State on disk is exactly what the kernel had
// been told so far.
func (e *Engine) Crash() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stopBg)
	e.bgDone.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = e.closeFiles() // abandoning handles is the point of a crash
	e.releaseMemoryLocked()
}

// releaseMemoryLocked returns the memtable's and cache's enclave
// allocations. Caller holds mu with closed already set.
func (e *Engine) releaseMemoryLocked() {
	e.cfg.Enclave.Free(e.memBytes)
	e.memBytes = 0
	e.memtable = make(map[mle.Tag]*memRec)
	e.cfg.Enclave.Free(e.cacheBytes)
	e.cacheBytes = 0
	e.cache = make(map[mle.Tag]*cacheRec)
	e.cacheLRU = list.New()
	e.cfg.Enclave.Free(int64(len(e.touched)) * touchRecBytes)
	e.touched = make(map[mle.Tag]*touchRec)
	e.touchDirty = make(map[mle.Tag]bool)
}
