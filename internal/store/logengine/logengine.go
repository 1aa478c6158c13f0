// Package logengine is the storage engine behind store.Store. With a
// directory it is persistent and log-structured: a WAL of sealed
// records feeds a memtable; a full memtable freezes, and a background
// writer makes it an immutable sorted segment; a size-tiered compactor
// merges segments, each with a key filter and sparse index, behind a
// bounded hot cache. Only the memtable, the frozen run, the cache and
// the filters and indexes stay resident. Without a directory it is the
// volatile store: its memtable holds every record and never freezes, a
// Remove deletes instead of leaving a tombstone, and Oldest is the
// memtable's LRU tail.
//
// The enclave holds Section IV-B's dictionary, not the ciphertext: a
// memtable or cache entry is charged for its tag, challenge, wrapped
// key and bookkeeping only (storeengine.Charge); MemtableBytes and
// CacheBytes bound whole records (storeengine.Size) in host memory.
//
// The directory lives on untrusted media. A record is sealed once,
// bound to platform, measurement, op and tag, into its WAL frame, and
// its segment stores the same bytes; CRCs tell crash damage (recovered)
// from tampering (refused loudly). Under FsyncCommit (the default) a
// mutation is acknowledged only after its WAL frame is fsynced, so it
// survives kill -9 and power loss; FsyncNone leaves that to the page
// cache. DESIGN.md "Storage engine" has the write, read, flush,
// compaction, recovery and eviction rules.
package logengine

import (
	"bufio"
	"bytes"
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
	// ciphertext included: reaching it freezes the buffer for the
	// writer to flush, so it bounds host memory (twice, with the frozen
	// buffer) and segment size. The enclave holds only the dictionary
	// entries. 0 means 4 MiB.
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

// Engine is the storage engine. One mutex serializes mutations, metadata
// reads, segment reads and merges; only the background writer works
// off it, taking it just to install a segment, and a manifest write,
// a flush's or a merge's, runs off it. All methods are safe for
// concurrent use.
type Engine struct {
	cfg  Config
	fsys fileSystem // the directory's file system

	// manifestMu serializes the manifest's writers, the writer and
	// Compact, which take it before mu: its holder, the only one to
	// change segments, writes the manifest off mu.
	manifestMu sync.Mutex

	mu        sync.Mutex
	closed    bool
	wal       *wal               // nil without a directory
	mem       *storeengine.Table // the newest state of every tag not yet frozen or in a segment
	cache     *storeengine.Table // hot segment records
	segments  []*segment         // oldest first
	nextSegID uint64

	// frozen is the memtable a full PUT froze, until the writer
	// commits its segment; walOld names the frozen WALs recovery
	// replayed into the memtable, and walSeq numbers the next one.
	// flushed is broadcast on mu when the writer is done with a run,
	// tries counts its attempts, flushErr is the failure of attempt
	// failedTry, and kick wakes it.
	frozen           *frozenRun
	walOld           []string
	walSeq           uint64
	flushed          sync.Cond
	tries, failedTry uint64
	flushErr         error
	kick             chan struct{}

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

	// compactSeconds times each merge and flushSeconds each background
	// flush; nil (a no-op) until RegisterTelemetry.
	compactSeconds, flushSeconds *telemetry.Histogram

	stopBg chan struct{}
	bgDone sync.WaitGroup
}

// Open starts an engine. With cfg.Dir it loads (or initialises) the
// directory: manifest-listed segments are opened and CRC-verified, the
// frozen WALs and then the active one are replayed into the memtable,
// a torn tail truncated, and orphan segment files are deleted. Without
// it the engine starts empty and volatile.
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
		kick:   make(chan struct{}, 1),
		stopBg: make(chan struct{}),
	}
	e.flushed.L = &e.mu
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
	segKeys := make([][]segRecord, len(names))
	for i, name := range names {
		listed[name] = true
		id, _ := parseSegmentName(name)
		seg, err := openSegment(e.fsys, filepath.Join(e.cfg.Dir, name), id, func(k segRecord) {
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
	files, err := e.fsys.ReadDir(e.cfg.Dir) // sorted: frozen logs oldest first
	if err != nil {
		return err
	}
	var (
		logs     []string
		good     int64
		allocErr error
	)
	for _, name := range files {
		if name == walNameV2 {
			return fmt.Errorf("logengine: %s: %w", name, errOldFormat)
		}
		if n, ok := parseFrozenWALName(name); ok {
			logs, e.walSeq = append(logs, name), n+1
		}
	}
	// Every log replays into the memtable, the frozen ones first; they go
	// with its next freeze. Nothing is cut before every frame checks out.
	for _, name := range append(logs, walName) {
		w, err := openWAL(e.fsys, filepath.Join(e.cfg.Dir, name))
		if err != nil {
			return err
		}
		if name == walName {
			e.wal = w
		} else {
			defer w.close() // read only
		}
		var replayed int64
		replayed, good, err = w.replay(e.cfg.Enclave, func(op walOp) {
			dead := op.op == walOpDelete
			if ent, err := e.mem.Set(op.tag, op.rec, dead); ent != nil {
				ent.Sealed = op.sealed
			} else if allocErr == nil {
				allocErr = err
			}
			e.keys[op.tag] = !dead
		})
		if err != nil {
			return err
		}
		if e.st.Replayed += replayed; good < w.size {
			e.st.TornTails++
			e.cfg.Logf("logengine: %s: torn tail after %d intact records", name, replayed)
		}
	}
	e.walOld = logs
	// The log's directory entry may be new, or left unsynced by a run
	// that crashed: make it durable before an append is acknowledged.
	if err := syncDir(e.fsys, e.cfg.Dir); err != nil {
		return err
	}
	if allocErr != nil {
		return fmt.Errorf("logengine: memtable allocation during recovery: %w", allocErr)
	}
	// Drop the active log's torn tail so the next append starts at a
	// frame boundary. The lost suffix was never acknowledged as durable
	// under fsync-on-commit (the crash hit before the sync returned), so
	// truncation loses nothing that was promised.
	if good < e.wal.size {
		if err := e.wal.cut(good); err != nil {
			return err
		}
	}

	// Remove orphan segment files, from a flush or compaction that died
	// before its manifest commit; after the replay, so that an older
	// format is refused before anything is deleted.
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

	// Live occupancy from the merged view, newest state winning: the
	// memtable, then the segments' header-only key lists, newest first.
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
				e.valueBytes += k.blob
			}
		}
	}
	if e.st.Replayed > 0 || len(e.segments) > 0 {
		e.cfg.Logf("logengine: recovered %d entries (%d segments, %d wal records replayed)",
			e.entries, len(e.segments), e.st.Replayed)
	}
	return nil
}

// identityProbes is how many live records checkSealIdentity tries per
// segment, and how many failures, with no success, refuse a directory.
const identityProbes = 4

// checkSealIdentity authenticates live records from each segment until
// one unseals, before recovery deletes or truncates anything. Under a
// foreign platform seed or measurement every record fails, and the
// store would otherwise open "fine" and dangle every lookup. One record
// that unseals proves the identity; fewer than identityProbes failures
// prove nothing (a store with one tampered record must open, so that
// the record is recomputed).
func (e *Engine) checkSealIdentity() error {
	failed := 0
	for _, s := range e.segments {
		c := s.newCursor()
		for n := 0; c.valid && n < identityProbes; c.next() {
			if c.dead {
				continue
			}
			if _, err := unsealRecord(e.cfg.Enclave, c.tag, c.sealed); err == nil {
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

// startBackground launches the writer and the compaction loop.
func (e *Engine) startBackground() {
	e.bgDone.Add(1)
	go e.writeFrozen()
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
	sealed []byte             // its sealed record in the frozen run or a segment, once read
}

// Get serves one GET message — a single is a message of one — looking
// each tag up in the memtable, the hot cache, the frozen run, then the
// segments newest first, and answers a prefix positionally. (The cache
// only holds a tag's newest version — a newer one enters the memtable
// after a Remove that drops the cached one — so consulting it before
// the frozen run changes no answer and spares a hit the unseal.) The
// prefix ends before the first hit whose sealed size would take the
// answers past budget bytes, but holds at least one answer. A hit's
// byte slices are views the caller must not write. An oblivious engine
// scans the tables uniformly and maintains no recency.
//
// Tags the untrusted hints rule out miss with no enclave entry
// (ruledOutLocked). Otherwise one entry decides what the tables and the
// frozen run can and, if that is all, answers; else the rest's segment
// payloads are read outside, up to the one that passes budget, and a
// second entry unseals and answers.
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
			var r *segRecord
			if p.ent == nil {
				r = e.frozen.find(tag)
			}
			switch {
			case p.ent != nil && !p.ent.Dead:
				resident++
			case r != nil && !r.dead:
				p.sealed = r.sealed
				resident++
			case p.ent == nil && r == nil && len(e.segments) > 0:
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
// has a live record: the memtable's key set, or else the frozen run,
// holds a tombstone for it, or neither holds it and every segment filter
// excludes it. A false "absent" costs a recompute, a false "present" an
// enclave entry. It counts what the in-enclave walk would have. Caller
// holds mu.
func (e *Engine) ruledOutLocked(tags []mle.Tag) bool {
	if e.cfg.Oblivious {
		return false // every lookup takes the uniform scan
	}
	var misses int64 // tags the memtable lacks
	for _, tag := range tags {
		live, ok := e.keys[tag]
		if r := e.frozen.find(tag); !ok && r != nil {
			live, ok = !r.dead, true
		}
		switch {
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
// touching table hits, and ends before the hit that would overflow
// budget (see Get). Sealed records that hit enter the hot cache after
// the walk, lest one evict an entry the walk has yet to reach. Caller
// holds mu, inside the enclave.
func (e *Engine) answerLocked(tags []mle.Tag, at []place, budget int) []storeengine.Lookup {
	out := make([]storeengine.Lookup, 0, len(at))
walk:
	for i, p := range at {
		tag := tags[i]
		var rec *storeengine.Record
		switch {
		case p.sealed != nil:
			srec, err := unsealRecord(e.cfg.Enclave, tag, p.sealed)
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
		// A sealed record's slices alias Unseal's fresh buffer; a
		// table's are views of the table's immutable record.
		if p.sealed == nil {
			e.st.CacheHits++
		}
		out = append(out, storeengine.Lookup{Status: storeengine.StatusHit, Record: *rec})
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

// findLocked looks tag up below the memtable — the frozen run, then the
// segments newest first — returning the newest version's state (and its
// sealed record when wantSealed is set). A segment whose fence or key
// filter excludes the tag costs no file read. Caller holds mu.
func (e *Engine) findLocked(tag mle.Tag, wantSealed bool) (sealed []byte, found, dead bool, err error) {
	if r := e.frozen.find(tag); r != nil {
		return r.sealed, true, r.dead, nil
	}
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

// cacheInsert caches a sealed record that hit, evicting from the LRU
// tail to keep the cache's whole-record bytes within budget. Caller
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

// logLocked appends one operation to the WAL, if any, unsynced, and
// returns its sealed record. Caller holds mu.
func (e *Engine) logLocked(op byte, tag mle.Tag, rec storeengine.Record) ([]byte, error) {
	if e.wal == nil {
		return nil, nil
	}
	return e.wal.append(e.cfg.Enclave, op, tag, rec)
}

// commitLocked syncs the WAL under FsyncCommit. Caller holds mu.
func (e *Engine) commitLocked() error {
	if e.wal == nil || e.cfg.Fsync != FsyncCommit {
		return nil
	}
	return e.wal.sync()
}

// fullLocked reports whether a memtable of mem whole-record bytes has to
// freeze; without a directory it never does. Caller holds mu.
func (e *Engine) fullLocked(mem int64) bool {
	return e.wal != nil && mem >= e.cfg.MemtableBytes
}

// Insert serves one PUT message: it stores, in order, each item whose
// tag has no live record — in the store or earlier in the message
// (first version wins, Section IV-B Remark) — and reports positionally
// which it installed, also beside an error. The engine copies what it
// keeps. The fresh items' WAL records are appended, one fsync (per
// policy) covers them, and one enclave entry applies them, so nothing
// is acknowledged before it is as durable as promised. A message is cut
// after a record that fills the memtable, which so freezes as with the
// items arriving one by one; the writer starts once the message is done.
func (e *Engine) Insert(items []storeengine.Item) ([]bool, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, storeengine.ErrClosed
	}
	installed := make([]bool, len(items))
	var err error
	for n, done := 0, 0; done < len(items) && err == nil; done += n {
		n, err = e.insertRunLocked(items[done:], installed[done:])
	}
	frozen := e.frozen != nil
	e.mu.Unlock()
	if frozen {
		e.kickWriter()
	}
	return installed, err
}

// freshItem is a run's item whose WAL record was appended.
type freshItem struct {
	i      int
	sealed []byte // the record's sealed bytes in its WAL frame
}

// insertRunLocked inserts the items up to and including the one that
// fills the memtable — the freeze that follows, in the enclave entry
// that applies them, rotates the WAL, so what it covers is synced and
// applied first — and reports how many that was. A run that could fill
// the memtable while a run is frozen first waits for the writer: only
// one is ever frozen (Stats.FlushWaits). Caller holds mu.
func (e *Engine) insertRunLocked(items []storeengine.Item, installed []bool) (n int, failed error) {
	if grown := e.mem.Size(); e.frozen != nil {
		for _, it := range items {
			grown += storeengine.Size(it.Record)
		}
		if e.fullLocked(grown) {
			e.st.FlushWaits++
			if err := e.awaitFrozenLocked(); err != nil {
				return 0, err
			}
		}
	}
	var (
		buf     [4]freshItem
		fresh   = buf[:0]                // the items to install
		claimed = make(map[mle.Tag]bool) // their tags
		mem     = e.mem.Size()           // at most this with them applied
	)
	for n < len(items) && failed == nil && (n == 0 || !e.fullLocked(mem)) {
		tag, rec := items[n].Tag, items[n].Record
		exists, err := e.existsLocked(tag)
		if err == nil && !exists && !claimed[tag] {
			var sealed []byte
			if sealed, err = e.logLocked(walOpPut, tag, rec); err == nil {
				claimed[tag] = true
				fresh = append(fresh, freshItem{n, sealed})
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
	froze := false
	err := e.cfg.Enclave.ECall(func() error {
		for _, f := range fresh {
			ent, err := e.mem.Set(items[f.i].Tag, items[f.i].Record, false)
			if err != nil {
				return fmt.Errorf("metadata allocation: %w", err)
			}
			ent.Sealed = f.sealed
			e.entries++
			e.valueBytes += ent.Rec.BlobSize
			e.keys[ent.Tag] = true
			installed[f.i] = true
		}
		if froze = failed == nil && e.fullLocked(e.mem.Size()); froze {
			e.freezeLocked()
		}
		return nil
	})
	if err != nil {
		// The WAL already carries the unapplied records; a replay would
		// resurrect them. Append compensating deletes so the log and the
		// memory state agree.
		for _, f := range fresh {
			if !installed[f.i] {
				if _, err := e.logLocked(walOpDelete, items[f.i].Tag, storeengine.Record{}); err != nil {
					break
				}
			}
		}
		_ = e.commitLocked() // best effort: the insert already failed
		return n, err
	}
	if froze {
		if err := e.rotateWALLocked(); err != nil {
			failed = fmt.Errorf("logengine: wal rotation: %w", err)
		}
	}
	return n, failed
}

// existsLocked reports whether tag has a live record anywhere:
// duplicate suppression is by presence.
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
// tombstones the memtable, so the versions in the frozen run and the
// segments stay shadowed; without one the entry just goes.
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
		if meta, err = unsealRecord(e.cfg.Enclave, tag, sealed); err != nil {
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
		if _, err := e.logLocked(walOpDelete, tag, storeengine.Record{}); err != nil {
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

// frozenRun is a frozen memtable: its tags' newest records, sorted by
// tag, each with its WAL frame's sealed bytes (none for a tombstone).
type frozenRun struct {
	recs []segRecord
	size int64    // the file size of the segment it becomes
	wals []string // the WAL files holding it, deleted once it is committed
}

// find returns tag's record in the run, nil when the (possibly nil) run
// has none.
func (r *frozenRun) find(tag mle.Tag) *segRecord {
	if r == nil {
		return nil
	}
	i, ok := slices.BinarySearchFunc(r.recs, tag, func(s segRecord, t mle.Tag) int { return bytes.Compare(s.tag[:], t[:]) })
	if !ok {
		return nil
	}
	return &r.recs[i]
}

// freezeLocked makes the memtable, whose entries point at their WAL
// records' sealed bytes, the frozen run, and empties it, releasing its
// dictionary charge. The caller rotates the WAL (rotateWALLocked); the
// writer does the rest (see DESIGN.md "Flush and crash ordering").
// Caller holds mu, with no run frozen.
func (e *Engine) freezeLocked() {
	run := &frozenRun{recs: make([]segRecord, 0, e.mem.Len()), size: int64(segHeaderLen + 4)}
	for _, ent := range e.mem.Sorted() {
		run.recs = append(run.recs, segRecord{tag: ent.Tag, dead: ent.Dead, blob: ent.Rec.BlobSize, sealed: ent.Sealed})
		run.size += int64(segRecHeader + len(ent.Sealed))
	}
	e.frozen = run
	e.mem.Clear()
	clear(e.keys)
	e.st.Flushes++
}

// rotateWALLocked renames the log to the next frozen WAL name, handing
// it (with the frozen WALs recovery replayed) to the frozen run, and
// starts an empty log. Under FsyncCommit the directory is synced after
// the rename, lest a power cut keep the new log but not the rename, and
// after the create, lest it drop the new log with acknowledged records
// in it. On failure the log in use refuses further appends. Caller
// holds mu.
func (e *Engine) rotateWALLocked() error {
	name, commit := frozenWALName(e.walSeq), e.cfg.Fsync == FsyncCommit
	err := e.fsys.Rename(filepath.Join(e.cfg.Dir, walName), filepath.Join(e.cfg.Dir, name))
	if err == nil {
		e.walSeq++
		e.frozen.wals, e.walOld = append(e.walOld, name), nil
		if commit {
			err = syncDir(e.fsys, e.cfg.Dir)
		}
	}
	var w *wal
	if err == nil {
		w, err = openWAL(e.fsys, filepath.Join(e.cfg.Dir, walName))
	}
	if err == nil {
		w.records, w.syncs = e.wal.records, e.wal.syncs
		_ = e.wal.close() // its appends are all written
		if e.wal = w; commit {
			err = syncDir(e.fsys, e.cfg.Dir)
		}
	}
	if err != nil {
		e.wal.failed = fmt.Errorf("logengine: wal unusable: rotation failed: %w", err)
	}
	return err
}

// kickWriter wakes the writer, or leaves it a wake-up.
func (e *Engine) kickWriter() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// awaitFrozenLocked waits, waking the writer, until no run is frozen.
// It returns the failure of a write attempted meanwhile (the next
// waiter retries) and ErrClosed once the engine closed. Caller holds
// mu, which the wait releases.
func (e *Engine) awaitFrozenLocked() error {
	for from := e.tries; ; e.flushed.Wait() {
		switch {
		case e.closed:
			return storeengine.ErrClosed
		case e.frozen == nil:
			return nil
		case e.failedTry > from:
			return fmt.Errorf("logengine: flush: %w", e.flushErr)
		}
		e.kickWriter()
	}
}

// writeFrozen is the background writer. Woken, it writes the frozen
// run's segment off the lock, with no enclave entry — its records are
// sealed already — then commits it through the manifest, which it
// writes off mu too, and takes mu to install the segment, drop the run
// and delete its WAL files; a frozen WAL left behind replays to the
// same state. A failed write leaves the run frozen, and the failure to
// the waiters. After Crash the file stays an orphan, as after a kill.
func (e *Engine) writeFrozen() {
	defer e.bgDone.Done()
	var buf *bufio.Writer // reused across flushes
	for {
		select {
		case <-e.stopBg:
			return
		case <-e.kick:
		}
		e.mu.Lock()
		run := e.frozen
		if run == nil || e.closed {
			e.mu.Unlock()
			continue
		}
		id, try := e.takeSegIDLocked(), e.tries+1
		e.tries = try
		e.mu.Unlock()
		if buf == nil {
			buf = bufio.NewWriterSize(nil, segWriteBuffer)
		}
		start, next := time.Now(), 0
		seg, err := writeSegment(e.fsys, e.cfg.Dir, id, len(run.recs), buf, func() (segRecord, bool, error) {
			if next++; next > len(run.recs) {
				return segRecord{}, false, nil
			}
			return run.recs[next-1], true, nil
		})
		e.manifestMu.Lock()
		e.mu.Lock()
		switch {
		case e.closed:
			if err == nil {
				_ = seg.close()
			}
		case err == nil:
			err = e.commitSegmentLocked(seg, append(slices.Clip(e.segments), seg))
		}
		if err != nil && !e.closed {
			e.flushErr, e.failedTry = err, try
		} else if !e.closed {
			e.frozen = nil
			e.flushSeconds.Observe(time.Since(start))
			for _, name := range run.wals {
				_ = e.fsys.Remove(filepath.Join(e.cfg.Dir, name))
			}
		}
		e.flushed.Broadcast()
		e.mu.Unlock()
		e.manifestMu.Unlock()
	}
}

// takeSegIDLocked reserves the next segment id. Caller holds mu.
func (e *Engine) takeSegIDLocked() uint64 {
	e.nextSegID++
	return e.nextSegID - 1
}

// commitSegmentLocked commits seg, written and synced, by making
// segments, which holds it, the manifest's list, written off mu, and
// then installing it; a failed write removes seg's file, a Close
// meanwhile only closes it. Caller holds manifestMu and mu.
func (e *Engine) commitSegmentLocked(seg *segment, segments []*segment) error {
	e.mu.Unlock()
	err := writeManifest(e.fsys, e.cfg.Dir, segmentNames(segments))
	e.mu.Lock()
	switch {
	case err != nil:
		_ = seg.close() // the manifest error wins
		e.fsys.Remove(seg.path)
		return err
	case e.closed:
		_ = seg.close()
		return storeengine.ErrClosed
	}
	e.segments = segments
	return nil
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
// MaxBlobBytes pressure: the first live record, in tag order, of the
// oldest segment that holds one, else of the frozen run, else the
// memtable's LRU tail — first in, first out, so a read writes nothing
// to disk. A forward hand over the segments finds it, standing on its
// record until a tombstone or newer version shadows it, so an eviction
// costs amortised O(1) record headers; a merge that takes its segment
// sends it back to the start. It reads untrusted headers, which is fine
// for a victim: a lie costs a recompute, and Remove authenticates.
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
	if e.frozen != nil {
		for _, r := range e.frozen.recs {
			if !r.dead && e.mem.Entry(r.tag) == nil {
				return r.tag, true
			}
		}
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

// shadowedLocked reports whether the memtable, the frozen run or one of
// the newer segments holds a version of tag, live or a tombstone.
// Caller holds mu.
func (e *Engine) shadowedLocked(tag mle.Tag, newer []*segment) (bool, error) {
	if e.mem.Entry(tag) != nil || e.frozen.find(tag) != nil {
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
	if e.frozen != nil {
		st.Segments++
		st.SegmentBytes += e.frozen.size
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

// Checkpoint makes every acknowledged operation durable, whatever the
// fsync policy: it freezes the memtable and waits for the writer to
// commit its segment. Without a directory there is nothing to do.
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
	if err := e.awaitFrozenLocked(); err != nil {
		return err
	}
	if e.mem.Len() > 0 {
		e.freezeLocked()
		if err := e.rotateWALLocked(); err != nil {
			return err
		}
		if err := e.awaitFrozenLocked(); err != nil {
			return err
		}
	}
	return e.wal.sync()
}

// Compact runs the size-tiered merge policy (compact.go) to its fixed
// point, under the engine lock: afterwards no eligible run is left,
// which may well mean several segments. A run frozen meanwhile joins
// the segments once the writer commits it.
func (e *Engine) Compact() error {
	e.manifestMu.Lock()
	defer e.manifestMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compactLocked()
}

// Close checkpoints, stops background work and releases the files and
// enclave memory; operations after it return ErrClosed. A clean close
// leaves an empty WAL, so the next Open replays nothing.
func (e *Engine) Close() error { return e.shutdown(true) }

// shutdown, the first time, checkpoints if asked, stops background work
// and releases the files and enclave memory.
func (e *Engine) shutdown(checkpoint bool) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	var flushErr error
	if checkpoint {
		flushErr = e.checkpointLocked()
	}
	e.closed = true
	e.flushed.Broadcast()
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

// Crash simulates kill -9 for tests and benchmarks: file handles, the
// memtable and a frozen run are abandoned, unsynced and uncommitted, so
// the disk holds what the kernel had been told, and errors closing the
// handles are dropped. Without a directory it is Close.
func (e *Engine) Crash() { _ = e.shutdown(false) }

// releaseMemoryLocked returns the tables' enclave allocations and drops
// the frozen run. Caller holds mu with closed already set.
func (e *Engine) releaseMemoryLocked() {
	e.mem.Clear()
	clear(e.keys)
	e.cache.Clear()
	e.frozen = nil
}
