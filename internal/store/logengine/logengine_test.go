package logengine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// testPlatform returns a seeded platform so enclaves across "restarts"
// share sealing keys, as the same machine would.
func testPlatform() *enclave.Platform {
	return enclave.NewPlatform(enclave.Config{PlatformSeed: []byte("logengine-test-seed")})
}

var enclaveSeq atomic.Int64

// testEnclave creates a store enclave with a fresh name but the same
// code, so every instance shares the measurement (and sealing key) —
// the "same binary restarted" case.
func testEnclave(t *testing.T, p *enclave.Platform) *enclave.Enclave {
	t.Helper()
	name := fmt.Sprintf("store-%d", enclaveSeq.Add(1))
	e, err := p.Create(name, []byte("store code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return e
}

func testConfig(t *testing.T, p *enclave.Platform, dir string) Config {
	t.Helper()
	return Config{
		Dir:             dir,
		Enclave:         testEnclave(t, p),
		CompactInterval: -1, // tests drive compaction explicitly
		Logf:            t.Logf,
	}
}

func openTest(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func tagOf(s string) mle.Tag { return mle.Tag(sha256.Sum256([]byte(s))) }

func recOf(s string) storeengine.Record {
	return storeengine.Record{
		Challenge:  []byte("challenge-16byte"),
		WrappedKey: []byte("wrappedkey16byte"),
		Blob:       []byte(s),
		BlobSize:   int64(len(s)),
		Owner:      enclave.Measurement(sha256.Sum256([]byte("owner"))),
	}
}

// get1, insert1 and contains1 are a message of one item through the
// engine's batch-first seam, in the shape most tests want.
func get1(e *Engine, tag mle.Tag) (storeengine.Record, storeengine.GetStatus, error) {
	found, err := e.Get([]mle.Tag{tag}, math.MaxInt)
	if err != nil {
		return storeengine.Record{}, storeengine.StatusMiss, err
	}
	return found[0].Record, found[0].Status, nil
}

func insert1(e *Engine, tag mle.Tag, rec storeengine.Record) (bool, error) {
	installed, err := e.Insert([]storeengine.Item{{Tag: tag, Record: rec}})
	return len(installed) == 1 && installed[0], err
}

// hitsOf reports, positionally, which of tags one Get message hits.
func hitsOf(e *Engine, tags ...mle.Tag) ([]bool, error) {
	got, err := e.Get(tags, math.MaxInt)
	hit := make([]bool, len(got))
	for i, l := range got {
		hit[i] = l.Status == storeengine.StatusHit
	}
	return hit, err
}

func mustInsert(t *testing.T, e *Engine, key, val string) {
	t.Helper()
	ok, err := insert1(e, tagOf(key), recOf(val))
	if err != nil {
		t.Fatalf("Insert(%s): %v", key, err)
	}
	if !ok {
		t.Fatalf("Insert(%s) reported duplicate", key)
	}
}

func mustGet(t *testing.T, e *Engine, key, want string) {
	t.Helper()
	rec, status, err := get1(e, tagOf(key))
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	if status != storeengine.StatusHit {
		t.Fatalf("Get(%s) status = %v, want hit", key, status)
	}
	if string(rec.Blob) != want {
		t.Fatalf("Get(%s) blob = %q, want %q", key, rec.Blob, want)
	}
	if string(rec.Challenge) != "challenge-16byte" || string(rec.WrappedKey) != "wrappedkey16byte" {
		t.Fatalf("Get(%s) returned corrupted metadata", key)
	}
}

func TestBasicInsertGetRemove(t *testing.T) {
	p := testPlatform()
	e := openTest(t, testConfig(t, p, t.TempDir()))

	if _, status, err := get1(e, tagOf("a")); err != nil || status != storeengine.StatusMiss {
		t.Fatalf("empty Get = %v, %v; want miss", status, err)
	}
	mustInsert(t, e, "a", "va")
	mustGet(t, e, "a", "va")
	if e.Len() != 1 {
		t.Errorf("Len = %d, want 1", e.Len())
	}
	if e.ValueBytes() != 2 {
		t.Errorf("ValueBytes = %d, want 2", e.ValueBytes())
	}

	// First version wins.
	ok, err := insert1(e, tagOf("a"), recOf("other"))
	if err != nil || ok {
		t.Fatalf("duplicate Insert = %v, %v; want false, nil", ok, err)
	}
	mustGet(t, e, "a", "va")

	rec, found, err := e.Remove(tagOf("a"))
	if err != nil || !found {
		t.Fatalf("Remove = %v, %v", found, err)
	}
	if rec.BlobSize != 2 {
		t.Errorf("removed BlobSize = %d, want 2", rec.BlobSize)
	}
	if rec.Owner != enclave.Measurement(sha256.Sum256([]byte("owner"))) {
		t.Errorf("removed Owner mismatch")
	}
	if _, status, _ := get1(e, tagOf("a")); status != storeengine.StatusMiss {
		t.Errorf("post-remove Get status = %v, want miss", status)
	}
	if e.Len() != 0 || e.ValueBytes() != 0 {
		t.Errorf("post-remove Len=%d ValueBytes=%d, want 0, 0", e.Len(), e.ValueBytes())
	}
	if _, found, _ := e.Remove(tagOf("a")); found {
		t.Errorf("second Remove reported found")
	}
}

func TestFlushServesFromSegments(t *testing.T) {
	p := testPlatform()
	cfg := testConfig(t, p, t.TempDir())
	cfg.MemtableBytes = 2 << 10 // tiny: force flushes
	cfg.CacheBytes = 1 << 10
	e := openTest(t, cfg)

	const n = 40
	for i := 0; i < n; i++ {
		mustInsert(t, e, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	st := e.Stats()
	if st.Flushes == 0 || st.Segments == 0 {
		t.Fatalf("no flushes happened (flushes=%d segments=%d); memtable budget not enforced", st.Flushes, st.Segments)
	}
	for i := 0; i < n; i++ {
		mustGet(t, e, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	if e.Len() != n {
		t.Errorf("Len = %d, want %d", e.Len(), n)
	}
	st = e.Stats()
	if st.CacheMisses == 0 {
		t.Errorf("expected segment reads, CacheMisses = 0")
	}
	// A re-read of a recently fetched key is served by the hot cache.
	before := e.Stats().CacheHits
	mustGet(t, e, fmt.Sprintf("k%02d", n-1), fmt.Sprintf("v%02d", n-1))
	if e.Stats().CacheHits <= before {
		t.Errorf("hot re-read did not hit the cache")
	}
}

// TestInsertMessageFlushesLikeOneByOne pins the memtable budget across a
// message: a PUT message that fills the memtable several times over
// flushes at the same records, into the same segments, as its items
// arriving one by one, so its enclave memory peaks no higher.
func TestInsertMessageFlushesLikeOneByOne(t *testing.T) {
	p := testPlatform()
	var msg []storeengine.Item
	for i := 0; i < 40; i++ {
		msg = append(msg, storeengine.Item{Tag: tagOf(fmt.Sprintf("k%02d", i)), Record: recOf(fmt.Sprintf("v%02d", i))})
	}
	msg = append(msg, msg[3], msg[17]) // duplicates within the message
	// run reports the engine's stats and its enclave's heap in use.
	run := func(messages [][]storeengine.Item) (storeengine.Stats, int64) {
		cfg := testConfig(t, p, t.TempDir())
		cfg.MemtableBytes = 2 << 10
		e := openTest(t, cfg)
		for _, m := range messages {
			if _, err := e.Insert(m); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		return e.Stats(), cfg.Enclave.HeapUsed()
	}
	var singles [][]storeengine.Item
	for i := range msg {
		singles = append(singles, msg[i:i+1])
	}
	batched, batchedHeap := run([][]storeengine.Item{msg})
	single, singleHeap := run(singles)
	if batched.Flushes < 2 {
		t.Fatalf("%d flushes; the message does not fill the memtable", batched.Flushes)
	}
	if batched.Flushes != single.Flushes || batched.SegmentBytes != single.SegmentBytes ||
		batched.WALBytes != single.WALBytes || batched.Entries != single.Entries || batchedHeap != singleHeap {
		t.Errorf("one message: %+v heap %d\none by one:  %+v heap %d", batched, batchedHeap, single, singleHeap)
	}
}

// TestMemtableBeyondUsableEPC: the enclave holds the memtable's
// dictionary, not its ciphertext, so a memtable budget larger than the
// usable EPC fills and flushes with no paging and no out-of-memory
// error. The budget still counts whole records — tag, header,
// challenge, wrapped key and ciphertext — so the flush lands on the
// record that brings the memtable to MemtableBytes.
func TestMemtableBeyondUsableEPC(t *testing.T) {
	rec := recOf(string(make([]byte, 64<<10)))
	whole := int64(32 + 128 + len(rec.Challenge) + len(rec.WrappedKey) + len(rec.Blob))
	const flushAt = 24 // ~1.5 MiB of whole records
	// Record flushAt reaches both budgets. Counted a byte larger, a
	// record would reach the second one record early; a byte smaller,
	// the first one record late.
	for _, budget := range []int64{flushAt * whole, (flushAt-1)*whole + 1} {
		p := enclave.NewPlatform(enclave.Config{PlatformSeed: []byte("logengine-test-seed"), EPCBytes: 2 << 20, EPCUsableBytes: 1 << 20})
		cfg := testConfig(t, p, t.TempDir())
		cfg.MemtableBytes = budget
		cfg.Fsync = FsyncNone
		e := openTest(t, cfg)
		for i := 1; i <= flushAt; i++ {
			if ok, err := insert1(e, tagOf(fmt.Sprintf("k%d", i)), rec); err != nil || !ok {
				t.Fatalf("budget %d: Insert %d: %v, %v", budget, i, ok, err)
			}
			want := int64(0)
			if i == flushAt {
				want = 1
			}
			if got := e.Stats().Flushes; got != want {
				t.Fatalf("budget %d: %d flushes after record %d, want %d (the memtable fills at record %d)", budget, got, i, want, flushAt)
			}
		}
		if pf := cfg.Enclave.Metrics().PageFaults; pf != 0 {
			t.Errorf("budget %d: filling the memtable on %d bytes of usable EPC paged %d times, want 0", budget, 1<<20, pf)
		}
	}
}

func TestCleanCloseReopen(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	for i := 0; i < 10; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := openTest(t, testConfig(t, p, dir))
	if got := e2.Stats().Replayed; got != 0 {
		t.Errorf("clean close still replayed %d wal records", got)
	}
	if e2.Len() != 10 {
		t.Errorf("reopened Len = %d, want 10", e2.Len())
	}
	for i := 0; i < 10; i++ {
		mustGet(t, e2, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
}

func TestCrashRecoveryFromWAL(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	for i := 0; i < 8; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if _, found, err := e.Remove(tagOf("k3")); err != nil || !found {
		t.Fatalf("Remove: %v %v", found, err)
	}
	e.Crash() // no flush, no clean shutdown

	e2 := openTest(t, testConfig(t, p, dir))
	if got := e2.Stats().Replayed; got == 0 {
		t.Fatalf("crash recovery replayed no wal records")
	}
	if e2.Len() != 7 {
		t.Errorf("recovered Len = %d, want 7", e2.Len())
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		_, status, err := get1(e2, tagOf(key))
		if err != nil {
			t.Fatalf("Get(%s): %v", key, err)
		}
		want := storeengine.StatusHit
		if i == 3 {
			want = storeengine.StatusMiss
		}
		if status != want {
			t.Errorf("Get(%s) status = %v, want %v", key, status, want)
		}
	}
}

func TestTombstoneSurvivesFlushAndReopen(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	mustInsert(t, e, "doomed", "v")
	if err := e.Checkpoint(); err != nil { // record now in a segment
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, found, err := e.Remove(tagOf("doomed")); err != nil || !found {
		t.Fatalf("Remove: %v %v", found, err)
	}
	if err := e.Checkpoint(); err != nil { // tombstone now in a newer segment
		t.Fatalf("Checkpoint: %v", err)
	}
	e.Crash()

	e2 := openTest(t, testConfig(t, p, dir))
	if _, status, _ := get1(e2, tagOf("doomed")); status != storeengine.StatusMiss {
		t.Errorf("deleted record resurrected after reopen: status %v", status)
	}
	if e2.Len() != 0 {
		t.Errorf("Len = %d, want 0", e2.Len())
	}
}

func TestCompactionMergesAndDropsTombstones(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	for i := 0; i < 10; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		if err := e.Checkpoint(); err != nil { // one segment per record
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, found, err := e.Remove(tagOf(fmt.Sprintf("k%d", i))); err != nil || !found {
			t.Fatalf("Remove: %v %v", found, err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	before := e.Stats()
	if before.Segments < 2 {
		t.Fatalf("want several segments before compaction, got %d", before.Segments)
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	mustBeAtFixedPoint(t, e)
	after := e.Stats()
	if after.Compactions == before.Compactions || after.Segments >= before.Segments {
		t.Errorf("nothing merged: compactions %d -> %d, segments %d -> %d",
			before.Compactions, after.Compactions, before.Segments, after.Segments)
	}
	// The run reached the oldest segment, so the removed records went
	// and so did their tombstones.
	records := 0
	for _, s := range e.segments {
		records += s.count
	}
	if records != 5 {
		t.Errorf("segments hold %d records after compaction, want the 5 live ones", records)
	}
	if after.SegmentBytes >= before.SegmentBytes {
		t.Errorf("compaction did not reclaim space: %d -> %d bytes", before.SegmentBytes, after.SegmentBytes)
	}
	for i := 0; i < 10; i++ {
		_, status, err := get1(e, tagOf(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		want := storeengine.StatusHit
		if i < 5 {
			want = storeengine.StatusMiss
		}
		if status != want {
			t.Errorf("post-compaction Get(k%d) = %v, want %v", i, status, want)
		}
	}
	// The merged state must survive a reopen.
	e.Close()
	e2 := openTest(t, testConfig(t, p, dir))
	if e2.Len() != 5 {
		t.Errorf("reopened Len = %d, want 5", e2.Len())
	}
}

func TestWorkingSetBeyondBudgets(t *testing.T) {
	p := testPlatform()
	cfg := testConfig(t, p, t.TempDir())
	cfg.MemtableBytes = 4 << 10
	cfg.CacheBytes = 4 << 10
	e := openTest(t, cfg)

	// ~256 records x ~200 bytes ≈ 50 KiB of values: >4x the combined
	// 8 KiB in-memory budget.
	const n = 256
	blob := bytes.Repeat([]byte("x"), 200)
	var totalBytes int64
	for i := 0; i < n; i++ {
		rec := recOf(string(blob))
		ok, err := insert1(e, tagOf(fmt.Sprintf("big%03d", i)), rec)
		if err != nil || !ok {
			t.Fatalf("Insert %d: %v %v", i, ok, err)
		}
		totalBytes += rec.BlobSize
	}
	if budget := cfg.MemtableBytes + cfg.CacheBytes; totalBytes < 4*budget {
		t.Fatalf("working set %d not >= 4x budget %d; test misconfigured", totalBytes, budget)
	}
	for i := 0; i < n; i++ {
		mustGet(t, e, fmt.Sprintf("big%03d", i), string(blob))
	}
	if e.Len() != n {
		t.Errorf("Len = %d, want %d", e.Len(), n)
	}
}

// TestGetReadsSegmentsWithinBudget pins the reply budget as a bound on
// what one GET message reads: of many segment-resident records it reads
// the prefix it answers and at most one more, whatever the tag count.
func TestGetReadsSegmentsWithinBudget(t *testing.T) {
	p := testPlatform()
	cfg := testConfig(t, p, t.TempDir())
	cfg.CacheBytes = 1 // no record fits: every lookup goes to the segment
	e := openTest(t, cfg)
	const n = 16
	blob := string(bytes.Repeat([]byte{'x'}, 1024))
	tags := make([]mle.Tag, n)
	for i := range tags {
		tags[i] = tagOf(fmt.Sprintf("k%02d", i))
		mustInsert(t, e, fmt.Sprintf("k%02d", i), blob)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	budget := 3*(32+len(blob)) + 200 // three records and a bit
	requests := 0
	for rest := tags; len(rest) > 0; requests++ {
		before := e.Stats()
		found, err := e.Get(rest, budget)
		if err != nil || len(found) != min(3, len(rest)) {
			t.Fatalf("Get(%d tags) = %d answers, %v; want 3", len(rest), len(found), err)
		}
		for i, l := range found {
			if l.Status != storeengine.StatusHit || string(l.Record.Blob) != blob {
				t.Fatalf("answer %d of request %d: status %v", i, requests, l.Status)
			}
		}
		after := e.Stats()
		if reads := after.CacheMisses - before.CacheMisses; reads > int64(len(found))+1 {
			t.Errorf("request %d read %d segment records to answer %d", requests, reads, len(found))
		}
		if probes := after.SegmentProbes - before.SegmentProbes; probes > int64(len(found))+1 {
			t.Errorf("request %d probed segments %d times to answer %d", requests, probes, len(found))
		}
		rest = rest[len(found):]
	}
	if requests != (n+2)/3 {
		t.Errorf("%d requests, want %d", requests, (n+2)/3)
	}
}

func TestObliviousGet(t *testing.T) {
	p := testPlatform()
	cfg := testConfig(t, p, t.TempDir())
	cfg.Oblivious = true
	e := openTest(t, cfg)
	mustInsert(t, e, "a", "va")
	mustInsert(t, e, "b", "vb")
	mustGet(t, e, "a", "va")
	mustGet(t, e, "b", "vb")
	if _, status, _ := get1(e, tagOf("zzz")); status != storeengine.StatusMiss {
		t.Errorf("oblivious miss = %v, want miss", status)
	}
	// A multi-tag message scans for every one of its tags: the segment
	// tier, the memtable and an absent tag all answer right.
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustInsert(t, e, "c", "vc")
	msg := []mle.Tag{tagOf("a"), tagOf("zzz"), tagOf("c"), tagOf("b")}
	got, err := e.Get(msg, math.MaxInt)
	if err != nil || len(got) != 4 {
		t.Fatalf("Get = %d answers, %v", len(got), err)
	}
	for i, want := range []string{"va", "", "vc", "vb"} {
		if hit := got[i].Status == storeengine.StatusHit; hit != (want != "") || string(got[i].Record.Blob) != want {
			t.Errorf("tag %d: status %v blob %q, want %q", i, got[i].Status, got[i].Record.Blob, want)
		}
	}
	// Oblivious lookups must not move the memtable's LRU order: "c" and
	// "d" were inserted in that order, so "c" stays the tail however
	// often "c" is read and "d" is not.
	mustInsert(t, e, "d", "vd")
	for i := 0; i < 3; i++ {
		mustGet(t, e, "c", "vc")
	}
	if tail := e.mem.Oldest(); tail == nil || tail.Tag != tagOf("c") {
		t.Error("oblivious Gets moved the memtable's LRU order")
	}
}

// TestOldest pins a persistent engine's eviction order: the oldest
// segment's live records first, in tag order, then the newer segment's,
// then the memtable's least recently used entry. Records a tombstone or
// a newer version shadows are skipped, and a read changes the order
// only inside the memtable.
func TestOldest(t *testing.T) {
	p := testPlatform()
	e := openTest(t, testConfig(t, p, t.TempDir()))
	checkpoint := func() {
		t.Helper()
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	var older, newer []string
	for i := 0; i < 6; i++ {
		older = append(older, fmt.Sprint("old", i))
		mustInsert(t, e, older[i], "v")
	}
	checkpoint()
	for i := 0; i < 3; i++ {
		newer = append(newer, fmt.Sprint("new", i))
		mustInsert(t, e, newer[i], "v")
	}
	checkpoint()
	for _, key := range []string{"mem0", "mem1", "mem2"} {
		mustInsert(t, e, key, "v")
	}
	// Shadow two old records: one removed, one replaced by a memtable
	// version. A read of an old record does not save it; a read of
	// mem0 moves it to the memtable's front.
	if _, found, err := e.Remove(tagOf(older[1])); err != nil || !found {
		t.Fatalf("Remove: %v %v", found, err)
	}
	if _, found, err := e.Remove(tagOf(older[2])); err != nil || !found {
		t.Fatalf("Remove: %v %v", found, err)
	}
	mustInsert(t, e, older[2], "v2")
	mustGet(t, e, older[0], "v")
	mustGet(t, e, "mem0", "v")

	byTag := func(keys []string) []string {
		keys = slices.Clone(keys)
		slices.SortFunc(keys, func(a, b string) int {
			ta, tb := tagOf(a), tagOf(b)
			return bytes.Compare(ta[:], tb[:])
		})
		return keys
	}
	var want []string
	for _, key := range byTag(older) {
		if key != older[1] && key != older[2] {
			want = append(want, key)
		}
	}
	want = append(want, byTag(newer)...)
	want = append(want, "mem1", "mem2", older[2], "mem0")
	for i, key := range want {
		tag, ok := e.Oldest()
		if !ok || tag != tagOf(key) {
			t.Fatalf("victim %d = %x (ok=%v), want %s", i, tag[:4], ok, key)
		}
		if again, _ := e.Oldest(); again != tag {
			t.Fatalf("victim %d changed without a Remove", i)
		}
		if _, found, err := e.Remove(tag); err != nil || !found {
			t.Fatalf("Remove victim %d: %v %v", i, found, err)
		}
	}
	if tag, ok := e.Oldest(); ok {
		t.Errorf("an empty engine named victim %x", tag[:4])
	}
}

// TestIterateMergedView pins that draining the engine through Oldest
// and Remove walks the merged view of segment and memtable: every live
// record once, and nothing a tombstone shadows.
func TestIterateMergedView(t *testing.T) {
	p := testPlatform()
	e := openTest(t, testConfig(t, p, t.TempDir()))
	for i := 0; i < 6; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Some state newer than the segment: one delete, two fresh inserts.
	if _, found, _ := e.Remove(tagOf("k0")); !found {
		t.Fatal("Remove k0")
	}
	mustInsert(t, e, "k6", "v6")
	mustInsert(t, e, "k7", "v7")

	got := map[string]bool{}
	for {
		tag, ok := e.Oldest()
		if !ok {
			break
		}
		rec, status, err := get1(e, tag)
		if err != nil || status != storeengine.StatusHit {
			t.Fatalf("Get(victim %x) = %v, %v", tag[:4], status, err)
		}
		if got[string(rec.Blob)] {
			t.Fatalf("drain yielded %s twice", rec.Blob)
		}
		got[string(rec.Blob)] = true
		if _, found, err := e.Remove(tag); err != nil || !found {
			t.Fatalf("Remove victim %x: %v %v", tag[:4], found, err)
		}
	}
	want := []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	if len(got) != len(want) {
		t.Fatalf("drain yielded %d records, want %d (%v)", len(got), len(want), got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("drain missed %s", w)
		}
	}
}

func TestClosedErrors(t *testing.T) {
	p := testPlatform()
	e := openTest(t, testConfig(t, p, t.TempDir()))
	mustInsert(t, e, "a", "v")
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := get1(e, tagOf("a")); err != storeengine.ErrClosed {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := insert1(e, tagOf("b"), recOf("v")); err != storeengine.ErrClosed {
		t.Errorf("Insert after Close = %v, want ErrClosed", err)
	}
	if _, _, err := e.Remove(tagOf("a")); err != storeengine.ErrClosed {
		t.Errorf("Remove after Close = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestOrphanSegmentRemovedAtOpen(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	mustInsert(t, e, "a", "v")
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	e.Close()

	// Simulate a flush that died before its manifest commit.
	orphan := filepath.Join(dir, segmentName(99))
	writeTestSegment(t, dir, 99, nil)

	e2 := openTest(t, testConfig(t, p, dir))
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphan segment survived recovery: %v", err)
	}
	mustGet(t, e2, "a", "v")
	// The orphan's id must not be reused while it could still exist.
	if e2.nextSegID <= 99 {
		t.Errorf("nextSegID = %d, want > 99", e2.nextSegID)
	}
}

func TestCrossEnclaveSealRejected(t *testing.T) {
	// Data written by one measurement must not be readable by another:
	// the sealed records fail authentication, and open fails loudly.
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	mustInsert(t, e, "a", "secret")
	e.Crash() // leave records in the WAL

	evil, err := p.Create("store", []byte("evil store code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cfg := Config{Dir: dir, Enclave: evil, CompactInterval: -1}
	if eng, err := Open(cfg); err == nil {
		eng.Close()
		t.Fatal("foreign enclave opened a sealed WAL without error")
	}
}

// TestFormatV1Refused: a directory in an older on-disk format —
// version 1, whose records carried popularity, or version 2, whose
// records sealed their op and tag inside — is refused at open with an
// error naming the format versions, and no file is modified: not the
// orphan segment recovery would delete, not the torn WAL tail it would
// truncate. Each case starts from a version-3 directory and turns one
// file into its older form; an older log is the one named walNameV2.
func TestFormatV1Refused(t *testing.T) {
	p := testPlatform()
	// oldWAL replaces the log with an older one holding the frame whose
	// plaintext is op | tag | body, sealed under the measurement alone
	// as formats 1 and 2 sealed, and a torn tail.
	oldWAL := func(t *testing.T, dir string, enc *enclave.Enclave, op byte, body []byte) {
		m := enc.Measurement()
		tag := tagOf("a")
		sealed, err := enc.Seal(nil, append(append([]byte{op}, tag[:]...), body...), m[:])
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(sealed)))
		frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(sealed, crcTable))
		frame = append(append(frame, sealed...), "torn"...)
		if err := os.Remove(filepath.Join(dir, walName)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walNameV2), frame, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	header := func(name, from, to string) func(*testing.T, string, *enclave.Enclave) {
		return func(t *testing.T, dir string, _ *enclave.Enclave) {
			rewrite(t, filepath.Join(dir, name), func(b []byte) []byte {
				return bytes.Replace(b, []byte(from), []byte(to), 1)
			})
		}
	}
	for _, c := range []struct {
		name string
		old  func(t *testing.T, dir string, enc *enclave.Enclave)
	}{
		{"manifest", header(manifestName, manifestHeader, manifestHeaderV1)},
		{"segment", header(segmentName(0), segMagic, segMagicV1)},
		{"wal touch frame", func(t *testing.T, dir string, enc *enclave.Enclave) {
			// Version 1's touch: op 3 | tag | hits uint64 | touch int64.
			oldWAL(t, dir, enc, 3, make([]byte, 16))
		}},
		{"manifest v2", header(manifestName, manifestHeader, manifestHeaderV2)},
		{"segment v2", header(segmentName(0), segMagic, segMagicV2)},
		{"wal v2", func(t *testing.T, dir string, enc *enclave.Enclave) {
			// Version 2's put: op 4 | tag | record, all sealed.
			oldWAL(t, dir, enc, walOpPut, appendRecord(nil, recOf("v")))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			e := openTest(t, testConfig(t, p, dir))
			mustInsert(t, e, "a", "v")
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			mustInsert(t, e, "b", "v") // a put frame in the WAL
			e.Crash()
			writeTestSegment(t, dir, 99, nil)
			cfg := testConfig(t, p, dir)
			c.old(t, dir, cfg.Enclave)
			before := dirFiles(t, dir)

			eng, err := Open(cfg)
			if err == nil {
				eng.Close()
				t.Fatal("a directory in an older format opened")
			}
			if !errors.Is(err, errOldFormat) || !strings.Contains(err.Error(), "format version 1 or 2") {
				t.Errorf("Open = %v, want an error naming format versions 1 and 2", err)
			}
			if after := dirFiles(t, dir); !maps.Equal(before, after) {
				t.Errorf("refusing the directory modified it: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// rewrite replaces the file at path with edit's result.
func rewrite(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o600); err != nil {
		t.Fatal(err)
	}
}

// dirFiles maps each file in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, ent := range entries {
		files[ent.Name()] = string(mustRead(t, filepath.Join(dir, ent.Name())))
	}
	return files
}
