// Package logengine is the storage engine behind store.Store. With a
// directory it is persistent and log-structured: an append-only WAL of
// sealed records feeding a memtable, flushed as immutable sorted
// segments, with a size-tiered background compactor, a per-segment key
// filter and sparse index, and a bounded hot-entry cache. The working
// set can exceed RAM: only the memtable, the cache, and the per-segment
// filters and sparse indexes stay resident.
//
// Without a directory it is the volatile store: no WAL, segments,
// manifest or background loops. Its memtable holds every record and
// never flushes, a Remove deletes the entry instead of leaving a
// tombstone, and Oldest is the memtable's LRU tail.
//
// In both, the enclave holds Section IV-B's dictionary, not the
// ciphertext: a memtable or cache entry is charged for its tag,
// challenge, wrapped key and bookkeeping only (storeengine.Charge).
// MemtableBytes and CacheBytes count whole records (storeengine.Size),
// so they bound host memory and flush size, not enclave memory.
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
// operations survive kill -9 and power loss; FsyncNone leaves it to the
// OS page cache.
// Recovery loads the manifest's segments (CRC-verified), refuses a
// directory none of whose segments this enclave can unseal or one in
// on-disk format version 1, replays the WAL — a torn tail is truncated,
// never applied — then deletes orphan segment files from interrupted
// flushes or compactions.
//
// Eviction: a persistent store's Oldest takes segments oldest first,
// then the memtable's LRU tail, so a read writes nothing to disk and a
// record carries no popularity. Recency is a hint there: a stored
// result never goes stale and an evicted one costs one recompute, never
// a wrong answer, so the caps need only a space bound, and the oblivious
// mode's no-refresh rule holds on disk by construction.
package logengine

import (
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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
	// FsyncNone never syncs explicitly.
	FsyncNone
)

// ParseFsync maps the operator-facing policy names ("commit", "none";
// "" defaults to commit) to a policy.
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "", "commit":
		return FsyncCommit, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("logengine: unknown fsync policy %q (want commit or none)", s)
	}
}

// Defaults for zero Config fields.
const (
	DefaultMemtableBytes   = 4 << 20
	DefaultCacheBytes      = 4 << 20
	DefaultCompactInterval = 30 * time.Second
)

// Config configures an Engine.
type Config struct {
	// Dir is the engine's directory on (untrusted) storage, created if
	// missing. Empty runs the engine as a volatile store (see the
	// package doc), and the remaining durability and budget fields are
	// ignored.
	Dir string
	// Enclave is charged for the memtable's and cache's dictionary
	// entries and seals every record the engine writes. Required.
	Enclave *enclave.Enclave
	// MemtableBytes bounds the write buffer's whole records,
	// ciphertext included: reaching it triggers a flush to a sorted
	// segment, so it bounds host memory and segment size. The enclave
	// holds only the buffer's dictionary entries. 0 means 4 MiB.
	MemtableBytes int64
	// CacheBytes bounds the hot-entry read cache in front of the
	// segments the same way: whole records in host memory, dictionary
	// entries in the enclave. 0 means 4 MiB.
	CacheBytes int64
	// Fsync is the WAL durability policy.
	Fsync Fsync
	// CompactInterval is how often the background compactor runs the
	// tiering policy; 0 means 30s, negative disables the background
	// loop (Compact still works).
	CompactInterval time.Duration
	// Oblivious makes lookups over the in-enclave structures
	// (memtable, cache) access-pattern uniform and disables their
	// recency maintenance. Segment reads go to untrusted disk,
	// whose access pattern is observable regardless; see DESIGN.md.
	Oblivious bool
	// Logf receives recovery and compaction diagnostics; nil discards.
	Logf func(format string, args ...any)
}

// Engine is the storage engine. A single mutex serializes mutations and
// metadata reads; segment file reads happen under it too (v1 keeps the
// locking simple — the key filters keep most lookups off the files and
// the bounded sparse-index scan keeps the rest short). All methods are
// safe for concurrent use.
type Engine struct {
	cfg  Config
	fsys fileSystem // the directory's file system

	mu        sync.Mutex
	closed    bool
	wal       *wal               // nil without a directory
	mem       *storeengine.Table // the newest state of every tag not yet in a segment
	cache     *storeengine.Table // hot segment records
	segments  []*segment         // oldest first
	nextSegID uint64

	// keys mirrors the memtable's key set (tag → live, false for a
	// tombstone) in untrusted memory beside the segment filters, and is
	// a hint like them: see ruledOutLocked. Unread under Oblivious.
	keys map[mle.Tag]bool

	// hand is the eviction cursor over the segments (see Oldest): the
	// segment it walks and the offset of the record it stands on. Every
	// segment record behind it is a tombstone or shadowed.
	hand struct {
		seg *segment
		off int64
	}

	entries    int64
	valueBytes int64
	st         storeengine.Stats // activity counters (occupancy filled on snapshot)

	// compactSeconds times each merge; nil (a no-op) until
	// RegisterTelemetry.
	compactSeconds *telemetry.Histogram

	stopBg chan struct{}
	bgDone sync.WaitGroup
}

// Open starts an engine. With cfg.Dir it loads (or initialises) the
// directory, recovering state: manifest-listed segments are opened and
// CRC-verified, orphan segment files are deleted, and the WAL is
// replayed into the memtable with any torn tail truncated. Without it
// the engine starts empty and volatile.
func Open(cfg Config) (*Engine, error) { return open(cfg, osFS{}) }

// open is Open on the file system fsys.
func open(cfg Config, fsys fileSystem) (*Engine, error) {
	if cfg.Enclave == nil {
		return nil, errors.New("logengine: Config.Enclave is required")
	}
	if cfg.MemtableBytes <= 0 {
		cfg.MemtableBytes = DefaultMemtableBytes
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.CompactInterval == 0 {
		cfg.CompactInterval = DefaultCompactInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	e := &Engine{
		cfg:    cfg,
		fsys:   fsys,
		mem:    storeengine.NewTable(cfg.Enclave, cfg.Oblivious),
		cache:  storeengine.NewTable(cfg.Enclave, cfg.Oblivious),
		keys:   make(map[mle.Tag]bool),
		stopBg: make(chan struct{}),
	}
	if cfg.Dir == "" {
		return e, nil
	}
	if err := fsys.MkdirAll(cfg.Dir, 0o700); err != nil {
		return nil, err
	}
	if err := e.recover(); err != nil {
		e.closeFiles()
		e.releaseMemoryLocked()
		return nil, err
	}
	e.startBackground()
	return e, nil
}

// recover rebuilds in-memory state from the directory.
func (e *Engine) recover() error {
	names, err := readManifest(e.fsys, e.cfg.Dir)
	if err != nil {
		return err
	}
	listed := make(map[string]bool, len(names))
	segKeys := make([][]keyHdr, len(names))
	for i, name := range names {
		listed[name] = true
		id, _ := parseSegmentName(name)
		seg, err := openSegment(e.fsys, filepath.Join(e.cfg.Dir, name), id, func(k keyHdr) {
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
	w, err := openWAL(e.fsys, filepath.Join(e.cfg.Dir, walName))
	if err != nil {
		return err
	}
	e.wal = w
	// The log's directory entry may be new, or left unsynced by a run
	// that crashed: make it durable before an append is acknowledged.
	if err := syncDir(e.fsys, e.cfg.Dir); err != nil {
		return err
	}
	var allocErr error
	replayed, torn, err := w.replay(e.cfg.Enclave, func(op walOp) {
		if _, err := e.mem.Set(op.tag, op.rec, op.op == walOpDelete); err != nil && allocErr == nil {
			allocErr = err
		}
		e.keys[op.tag] = op.op != walOpDelete
	})
	if err != nil {
		return err
	}
	e.st.Replayed = replayed
	if torn {
		e.st.TornTails++
		e.cfg.Logf("logengine: truncated torn wal tail after %d intact records", replayed)
	}
	if allocErr != nil {
		return fmt.Errorf("logengine: memtable allocation during recovery: %w", allocErr)
	}

	// Remove orphan segment files: a flush or compaction that died
	// after creating its output but before committing the manifest. It
	// follows the replay so that a log in an older format is refused
	// before anything is deleted.
	files, err := e.fsys.ReadDir(e.cfg.Dir)
	if err != nil {
		return err
	}
	for _, name := range files {
		id, ok := parseSegmentName(name)
		if !ok || listed[name] {
			continue
		}
		if id >= e.nextSegID {
			e.nextSegID = id + 1 // never reuse an orphan's id
		}
		e.cfg.Logf("logengine: removing orphan segment %s (interrupted flush/compaction)", name)
		if err := e.fsys.Remove(filepath.Join(e.cfg.Dir, name)); err != nil {
			return err
		}
	}

	// Compute live occupancy from the merged view: newest state wins
	// (memtable over segments, later segments over earlier). The
	// per-segment key lists are transient — header-only, no payloads —
	// and dropped when this returns.
	for _, ent := range e.mem.Sorted() {
		if !ent.Dead {
			e.entries++
			e.valueBytes += ent.Rec.BlobSize
		}
	}
	seen := make(map[mle.Tag]bool)
	for i := len(segKeys) - 1; i >= 0; i-- { // newest segment first
		for _, k := range segKeys[i] {
			if seen[k.tag] || e.mem.Entry(k.tag) != nil {
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

// startBackground launches the compaction loop.
func (e *Engine) startBackground() {
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

// place is where the newest version of one tag of a GET message lives.
type place struct {
	ent    *storeengine.Entry // its memtable or hot-cache entry
	tab    *storeengine.Table // the table holding ent
	disk   bool               // only the segments can tell
	sealed []byte             // the payload of its segment record, once read
}

// Get serves one GET message — a single is a message of one — looking
// the tags up in order in the memtable, then the hot cache, then the
// segments newest-first through their sparse indexes, and answers a
// prefix of them positionally. The prefix ends before the first hit
// whose sealed size (challenge + wrapped key + blob) would take the
// answers past budget bytes — that record is neither counted nor
// touched — but always holds one answer. On StatusHit the Record's byte
// slices are the caller's. An oblivious engine looks every tag up with
// the tables' uniform scans and maintains no recency.
//
// Tags the untrusted hints rule out all miss with no enclave entry (see
// ruledOutLocked). Otherwise one entry locates the message's tags in the
// in-enclave tiers and, if those decide them all, answers; else the
// segment payloads of the rest are read outside and a second entry
// unseals them and answers. The reads stop with the record that takes
// them past budget (a sealed payload is no smaller than what it
// answers), so a message costs at most budget plus one record of disk
// reads and heap.
func (e *Engine) Get(tags []mle.Tag, budget int) ([]storeengine.Lookup, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, storeengine.ErrClosed
	}
	if e.ruledOutLocked(tags) {
		return make([]storeengine.Lookup, len(tags)), nil
	}
	var (
		one              [1]place // a single's place, off the heap
		at               = one[:min(len(tags), 1)]
		out              []storeengine.Lookup
		resident, absent int
	)
	if len(tags) > 1 {
		at = make([]place, len(tags))
	}
	err := e.cfg.Enclave.ECall(func() error {
		for i, tag := range tags {
			p := &at[i]
			if p.ent = e.mem.Lookup(tag); p.ent != nil {
				p.tab = e.mem
			} else if p.ent = e.cache.Lookup(tag); p.ent != nil {
				p.tab = e.cache
			}
			switch {
			case p.ent != nil && !p.ent.Dead:
				resident++
			case p.ent == nil && len(e.segments) > 0:
				p.disk = true
				absent++
			}
		}
		if absent == 0 {
			out = e.answerLocked(tags, at, budget)
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
		if p := &at[i]; p.disk {
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
		return make([]storeengine.Lookup, len(at)), nil // every tag is a miss
	}
	err = e.cfg.Enclave.ECall(func() error {
		out = e.answerLocked(tags, at, budget)
		return nil
	})
	return out, err
}

// ruledOutLocked reports whether the untrusted hints show that no tag
// has a live record: the memtable's key set holds a tombstone for it,
// or lacks it and every segment filter excludes it. A false "absent"
// costs the caller a recompute, a false "present" an enclave entry; a
// hit comes only from the enclave. It counts what the in-enclave walk
// would have. Caller holds mu.
func (e *Engine) ruledOutLocked(tags []mle.Tag) bool {
	if e.cfg.Oblivious {
		return false // every lookup takes the uniform scan
	}
	var misses int64 // tags the memtable lacks
	for _, tag := range tags {
		switch live, ok := e.keys[tag]; {
		case live:
			return false
		case !ok:
			for _, s := range e.segments {
				if s.mayContain(tag) {
					return false
				}
			}
			misses++
		}
	}
	if len(e.segments) > 0 {
		e.st.CacheMisses += misses
		e.st.FilterSkips += misses * int64(len(e.segments))
	}
	return true
}

// answerLocked answers tags in order from the versions at located,
// moving each table hit to the front of its table's LRU order, and
// ends before the hit that would overflow budget (see Get). Segment
// records that hit enter the hot cache once the walk is over, so an
// insert cannot evict an entry the walk has yet to reach. Caller holds
// mu, inside the enclave.
func (e *Engine) answerLocked(tags []mle.Tag, at []place, budget int) []storeengine.Lookup {
	out := make([]storeengine.Lookup, 0, len(at))
walk:
	for i, p := range at {
		tag := tags[i]
		var rec *storeengine.Record
		switch {
		case p.sealed != nil:
			srec, err := unsealRecord(e.cfg.Enclave, p.sealed)
			if err != nil {
				// Authenticated storage failed us: the policy layer
				// drops a dangling entry and the caller recomputes.
				e.cfg.Logf("logengine: record %s failed authentication: %v", shortTag(tag), err)
				out = append(out, storeengine.Lookup{Status: storeengine.StatusDangling})
				continue
			}
			rec = &srec
		case p.ent != nil && !p.ent.Dead:
			rec = &p.ent.Rec
		}
		if rec == nil { // deleted, or in no tier at all
			out = append(out, storeengine.Lookup{})
			continue
		}
		size := len(rec.Challenge) + len(rec.WrappedKey) + len(rec.Blob)
		if len(out) > 0 && size > budget {
			break walk
		}
		budget -= size
		if !e.cfg.Oblivious && p.ent != nil {
			p.tab.Touch(p.ent)
		}
		// A segment record's slices alias Unseal's fresh buffer; a
		// table's are the table's.
		l := storeengine.Lookup{Status: storeengine.StatusHit, Record: *rec}
		if p.sealed == nil {
			l.Record = storeengine.CopyRecord(*rec)
			e.st.CacheHits++
		}
		out = append(out, l)
	}
	if !e.cfg.Oblivious {
		for i, l := range out {
			if at[i].sealed != nil && l.Status == storeengine.StatusHit {
				e.cacheInsert(tags[i], l.Record)
			}
		}
	}
	return out
}

// shortTag names a tag in a log line by its first bytes. Formatting a
// copy keeps the caller's tag off the heap.
func shortTag(tag mle.Tag) string { return hex.EncodeToString(tag[:8]) }

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

// cacheInsert places a segment record in the hot cache, evicting from
// the LRU tail to keep its whole-record bytes within budget. Caller
// holds mu.
func (e *Engine) cacheInsert(tag mle.Tag, rec storeengine.Record) {
	if storeengine.Size(rec) > e.cfg.CacheBytes {
		return // larger than the whole budget; don't thrash
	}
	if _, err := e.cache.Set(tag, rec, false); err != nil {
		return // enclave memory pressure: serving without caching is fine
	}
	for e.cache.Size() > e.cfg.CacheBytes {
		e.cache.Delete(e.cache.Oldest().Tag)
	}
}

// logLocked appends one operation to the WAL; without a directory there
// is none. It does not sync. Caller holds mu.
func (e *Engine) logLocked(op byte, tag mle.Tag, rec storeengine.Record) error {
	if e.wal == nil {
		return nil
	}
	return e.wal.append(e.cfg.Enclave, op, tag, rec)
}

// commitLocked syncs the WAL when the policy is FsyncCommit. Caller
// holds mu.
func (e *Engine) commitLocked() error {
	if e.wal == nil || e.cfg.Fsync != FsyncCommit {
		return nil
	}
	return e.wal.sync()
}

// fullLocked reports whether a memtable of mem whole-record bytes
// (storeengine.Size) has to flush; without a directory it never does.
// Caller holds mu.
func (e *Engine) fullLocked(mem int64) bool {
	return e.wal != nil && mem >= e.cfg.MemtableBytes
}

// Insert serves one PUT message: it stores, in order, each item whose
// tag has no live record — in the store or earlier in the message
// (first version wins, Section IV-B Remark) — and reports positionally
// which it installed, also beside an error. The engine copies what it
// keeps. Every fresh item's WAL record is appended, one fsync (per
// policy) covers the message, and one enclave entry applies it to the
// memtable, so nothing is acknowledged before the whole message is as
// durable as the policy promises. A message is cut after a record that
// fills the memtable, which so flushes exactly as with the items
// arriving one by one.
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
		fresh   = make([]int, 0, len(items)) // the items to install
		claimed = make(map[mle.Tag]bool)     // their tags
		mem     = e.mem.Size()               // at most this with them applied
	)
	for n < len(items) && failed == nil && (n == 0 || !e.fullLocked(mem)) {
		tag, rec := items[n].Tag, items[n].Record
		exists, err := e.existsLocked(tag)
		if err == nil && !exists && !claimed[tag] {
			if err = e.logLocked(walOpPut, tag, rec); err == nil {
				claimed[tag] = true
				fresh = append(fresh, n)
				mem += storeengine.Size(rec)
			}
		}
		failed = err // what the WAL already carries is still applied
		n++
	}
	// Nothing is applied, so nothing acknowledged, before the one sync.
	if len(fresh) > 0 {
		if err := e.commitLocked(); err != nil {
			return n, fmt.Errorf("logengine: wal fsync: %w", err)
		}
	}
	err := e.cfg.Enclave.ECall(func() error {
		for _, i := range fresh {
			ent, err := e.mem.Set(items[i].Tag, items[i].Record, false)
			if err != nil {
				return fmt.Errorf("metadata allocation: %w", err)
			}
			e.entries++
			e.valueBytes += ent.Rec.BlobSize
			e.keys[ent.Tag] = true
			installed[i] = true
		}
		return nil
	})
	if err != nil {
		// The WAL already carries the unapplied records; a replay would
		// resurrect them. Append compensating deletes so the log and the
		// memory state agree.
		for _, i := range fresh {
			if !installed[i] && e.logLocked(walOpDelete, items[i].Tag, storeengine.Record{}) != nil {
				break
			}
		}
		_ = e.commitLocked() // best effort: the insert already failed
		return n, err
	}
	if failed == nil && e.fullLocked(e.mem.Size()) {
		if err := e.flushLocked(); err != nil {
			failed = fmt.Errorf("logengine: flush: %w", err)
		}
	}
	return n, failed
}

// Contains serves one HAS message: whether a live record exists for
// each tag, positionally, with no cache promotion or recency update —
// existence probes (chunked dedup's missing-chunk transfer) that leave
// the eviction order alone. The memtable's key set answers outside the
// enclave for what the memtable holds (an oblivious engine scans the
// memtable instead, in one enclave entry); the segments' filters and
// indexes answer the rest. The answers are hints:
// callers tolerate a later Get missing.
func (e *Engine) Contains(tags []mle.Tag) ([]bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, storeengine.ErrClosed
	}
	present := make([]bool, len(tags))
	var probe []int // the tags only the segments can decide
	decide := func() error {
		for i, tag := range tags {
			var live, ok bool
			if e.cfg.Oblivious {
				ent := e.mem.Lookup(tag)
				live, ok = ent != nil && !ent.Dead, ent != nil
			} else {
				live, ok = e.keys[tag]
			}
			if ok {
				present[i] = live
			} else if len(e.segments) > 0 {
				probe = append(probe, i)
			}
		}
		return nil
	}
	if !e.cfg.Oblivious {
		_ = decide()
	} else if err := e.cfg.Enclave.ECall(decide); err != nil {
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
// (memtable, segments) — duplicate suppression is by presence.
func (e *Engine) existsLocked(tag mle.Tag) (bool, error) {
	if ent := e.mem.Entry(tag); ent != nil {
		return !ent.Dead, nil
	}
	_, found, dead, err := e.findLocked(tag, false)
	return found && !dead, err
}

// Remove deletes the tag's record, returning it (Blob may be nil;
// BlobSize and Owner are always set) so the caller can settle quota
// accounting. With a directory it appends a delete to the WAL and
// tombstones the memtable, so the versions in the segments stay
// shadowed; without one the entry just goes.
func (e *Engine) Remove(tag mle.Tag) (storeengine.Record, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return storeengine.Record{}, false, storeengine.ErrClosed
	}
	var meta storeengine.Record
	if ent := e.mem.Entry(tag); ent != nil {
		if ent.Dead {
			return storeengine.Record{}, false, nil
		}
		meta = ent.Rec
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
	}
	meta.Challenge, meta.WrappedKey, meta.Blob = nil, nil, nil
	if e.wal == nil {
		e.mem.Delete(tag)
		delete(e.keys, tag)
	} else {
		if err := e.logLocked(walOpDelete, tag, storeengine.Record{}); err != nil {
			return storeengine.Record{}, false, err
		}
		if err := e.commitLocked(); err != nil {
			return storeengine.Record{}, false, err
		}
		// A tombstone is installed even when the enclave cannot be
		// charged for it.
		_ = e.cfg.Enclave.ECall(func() error {
			_, err := e.mem.Set(tag, storeengine.Record{}, true)
			return err
		})
		e.keys[tag] = false
	}
	e.cache.Delete(tag)
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
	if e.mem.Len() == 0 {
		return nil
	}
	entries := e.mem.Sorted()
	records := make([]segRecord, len(entries))
	err := e.cfg.Enclave.ECall(func() error {
		// Live records are sealed into one exact-size arena.
		size := 0
		for _, ent := range entries {
			if !ent.Dead {
				size += enclave.SealOverhead + recordLen(ent.Rec)
			}
		}
		arena := make([]byte, 0, size)
		for i, ent := range entries {
			records[i] = segRecord{tag: ent.Tag, dead: ent.Dead, blob: ent.Rec.BlobSize} // 0 for a tombstone
			if ent.Dead {
				continue
			}
			sealed, err := sealRecord(e.cfg.Enclave, arena, nil, &ent.Rec)
			if err != nil {
				return err
			}
			records[i].sealed, arena = sealed[len(arena):], sealed
		}
		return nil
	})
	if err != nil {
		return err
	}

	_, err = e.commitSegmentLocked(func() (segRecord, bool, error) {
		if len(records) == 0 {
			return segRecord{}, false, nil
		}
		r := records[0]
		records = records[1:]
		return r, true, nil
	}, func(seg *segment) []*segment { return append(e.segments, seg) })
	if err != nil {
		return err
	}
	if err := e.wal.reset(); err != nil {
		return err
	}
	e.mem.Clear()
	clear(e.keys)
	e.st.Flushes++
	return nil
}

// commitSegmentLocked writes the records next yields as a new segment
// and commits, through the manifest, the segment list splice builds
// around it; a failure before the commit removes or orphans only the
// new file. Caller holds mu.
func (e *Engine) commitSegmentLocked(next func() (segRecord, bool, error), splice func(*segment) []*segment) (*segment, error) {
	id := e.nextSegID
	path := filepath.Join(e.cfg.Dir, segmentName(id))
	if err := writeSegment(e.fsys, path, next); err != nil {
		return nil, err
	}
	if err := syncDir(e.fsys, e.cfg.Dir); err != nil {
		return nil, err
	}
	seg, err := openSegment(e.fsys, path, id, nil)
	if err == nil {
		segments := splice(seg)
		if err = writeManifest(e.fsys, e.cfg.Dir, segmentNames(segments)); err == nil {
			e.segments, e.nextSegID = segments, id+1
			return seg, nil
		}
		if cerr := seg.close(); cerr != nil {
			e.cfg.Logf("logengine: close orphan segment: %v", cerr)
		}
	}
	e.fsys.Remove(path)
	return nil, err
}

// Len reports the number of live records.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.entries)
}

// ValueBytes reports the total ciphertext bytes of live records.
func (e *Engine) ValueBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.valueBytes
}

// Oldest reports the victim the Store evicts under MaxEntries /
// MaxBlobBytes pressure. Without a directory it is the memtable's least
// recently used entry. With one it is the first live record, in tag
// order, of the oldest segment that holds one, and the memtable's LRU
// tail only once no segment does: first in, first out by segment, so a
// read writes nothing to disk. A forward hand finds it. The hand stands
// on its record until a tombstone or a newer version shadows it, so the
// records it evicted stay behind it and an eviction costs amortised
// O(1) record headers; a merge that takes its segment sends it back to
// the oldest segment's first record. The hand reads untrusted headers,
// which is fine for a victim: a lie costs a recompute, and Remove
// authenticates what it settles.
func (e *Engine) Oldest() (mle.Tag, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	tag, ok, err := e.handLocked()
	if err != nil {
		e.cfg.Logf("logengine: eviction hand: %v", err)
	}
	if ok {
		return tag, true
	}
	if ent := e.mem.Oldest(); ent != nil {
		return ent.Tag, true
	}
	return mle.Tag{}, false
}

// handLocked moves the eviction hand forward to the first segment
// record that is live in the merged view and returns its tag; ok is
// false when no segment holds one. Caller holds mu.
func (e *Engine) handLocked() (tag mle.Tag, ok bool, err error) {
	i := slices.Index(e.segments, e.hand.seg)
	if i < 0 { // a fresh engine, or a merge took the hand's segment
		if len(e.segments) == 0 {
			return tag, false, nil
		}
		i, e.hand.seg, e.hand.off = 0, e.segments[0], int64(segHeaderLen)
	}
	for {
		s := e.hand.seg
		if e.hand.off >= s.size-4 { // past its last record
			if i++; i == len(e.segments) {
				return tag, false, nil
			}
			e.hand.seg, e.hand.off = e.segments[i], int64(segHeaderLen)
			continue
		}
		tag, dead, next, err := s.header(e.hand.off)
		if err != nil {
			return tag, false, err
		}
		if !dead {
			shadowed, err := e.shadowedLocked(tag, e.segments[i+1:])
			if err != nil || !shadowed {
				return tag, err == nil, err
			}
		}
		e.hand.off = next
	}
}

// shadowedLocked reports whether the memtable or one of the newer
// segments holds a version of tag, live or a tombstone. Caller holds
// mu.
func (e *Engine) shadowedLocked(tag mle.Tag, newer []*segment) (bool, error) {
	if e.mem.Entry(tag) != nil {
		return true, nil
	}
	for _, s := range newer {
		if !s.mayContain(tag) {
			continue
		}
		if _, found, _, err := s.find(tag, false); err != nil || found {
			return found, err
		}
	}
	return false, nil
}

// Stats snapshots engine occupancy and activity counters.
func (e *Engine) Stats() storeengine.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.st
	st.Entries = int(e.entries)
	st.ValueBytes = e.valueBytes
	if e.wal != nil {
		st.WALBytes, st.WALRecords, st.WALSyncs = e.wal.size, e.wal.records, e.wal.syncs
	}
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

// Checkpoint makes every acknowledged operation durable: it flushes the
// memtable (which truncates the WAL) and fsyncs, so it is in a durable
// segment regardless of fsync policy. Without a directory there is
// nothing to make durable.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return storeengine.ErrClosed
	}
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	if e.wal == nil {
		return nil
	}
	if err := e.flushLocked(); err != nil {
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

// Close stops background work, checkpoints and releases the files and
// enclave memory; operations after it return ErrClosed. A clean close
// leaves an empty WAL, so the next Open replays nothing.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	flushErr := e.checkpointLocked()
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
// been told so far. Without a directory it is Close.
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

// releaseMemoryLocked returns the tables' enclave allocations. Caller
// holds mu with closed already set.
func (e *Engine) releaseMemoryLocked() {
	e.mem.Clear()
	clear(e.keys)
	e.cache.Clear()
}
