package logengine

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// seededTag is the i-th tag of a seeded key set: uniformly spread,
// like a real SHA-256 tag, and reproducible.
func seededTag(seed uint64, i int) mle.Tag {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	return mle.Tag(sha256.Sum256(b[:]))
}

// writeTestSegment writes recs, sorted by tag, as segment id in dir
// and returns it open, with the index writeSegment built as it wrote.
func writeTestSegment(t testing.TB, dir string, id uint64, recs []segRecord) *segment {
	t.Helper()
	recs = slices.Clone(recs)
	sort.Slice(recs, func(i, j int) bool { return string(recs[i].tag[:]) < string(recs[j].tag[:]) })
	seg, err := writeSegment(osFS{}, dir, id, len(recs), bufio.NewWriter(nil), func() (segRecord, bool, error) {
		if len(recs) == 0 {
			return segRecord{}, false, nil
		}
		r := recs[0]
		recs = recs[1:]
		return r, true, nil
	})
	if err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	t.Cleanup(func() { seg.close() })
	return seg
}

// TestKeyFilterProperties: over seeded key sets of 1 to 50 000 tags,
// every inserted tag answers "maybe" — straight after the write and
// after reopening the file — and at most 1% of fresh tags do.
func TestKeyFilterProperties(t *testing.T) {
	const fresh = 100_000
	for _, n := range []int{1, 2, 7, 100, 1000, 10_000, 50_000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			seed := uint64(n)
			tags := make([]mle.Tag, n)
			for i := range tags {
				tags[i] = seededTag(seed, i)
			}
			recs := make([]segRecord, n) // tombstones: the filter and index see keys, not payloads
			for i, tag := range tags {
				recs[i] = segRecord{tag: tag, dead: true}
			}
			written := writeTestSegment(t, t.TempDir(), 0, recs)
			reopened, err := openSegment(osFS{}, written.path, 0, nil)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer reopened.close()
			for _, seg := range []*segment{written, reopened} {
				if got, want := len(seg.filter)*8, n*filterBitsPerKey/8+64; got > want {
					t.Fatalf("filter is %d bytes for %d keys, want at most %d (≈2 B/key)", got, n, want)
				}
				for i, tag := range tags {
					if !seg.mayContain(tag) {
						t.Fatalf("false negative: tag %d of %d", i, n)
					}
				}
				// The bare filter, without the fence's help.
				falsePos := 0
				for i := 0; i < fresh; i++ {
					tag := seededTag(seed+1<<32, i)
					if seg.filter.mayContain(&tag) {
						falsePos++
					}
				}
				if rate := float64(falsePos) / fresh; rate > 0.01 {
					t.Fatalf("false-positive rate %.4f over %d fresh tags, want <= 0.01", rate, fresh)
				}
			}
		})
	}
}

// tieredConfig is testConfig with a memtable so small that a few
// records fill it, so a test reaches dozens of segments and several
// size classes with little data.
func tieredConfig(t *testing.T, p *enclave.Platform, dir string) Config {
	cfg := testConfig(t, p, dir)
	cfg.MemtableBytes = 1 << 10
	cfg.CacheBytes = 1 << 10
	cfg.Fsync = FsyncNone
	return cfg
}

// mustBeAtFixedPoint asserts what Compact promises: no run the tiering
// policy would merge is left.
func mustBeAtFixedPoint(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if lo, hi, ok := pickRun(e.segments, e.cfg.MemtableBytes); ok {
		t.Fatalf("segments[%d:%d] still form an eligible run after Compact (%d segments)", lo, hi, len(e.segments))
	}
}

// absentEverywhere returns n seeded tags that no segment's fence and
// filter let through: the lookups the filters exist for.
func absentEverywhere(e *Engine, seed uint64, n int) []mle.Tag {
	var out []mle.Tag
next:
	for i := 0; len(out) < n; i++ {
		tag := seededTag(seed, i)
		for _, s := range e.segments {
			if s.mayContain(tag) {
				continue next
			}
		}
		out = append(out, tag)
	}
	return out
}

// TestAbsentLookupsReadNoSegment: with a dozen segments on disk, a Get
// on an absent tag, Contains, and the first-version-wins check of a
// fresh-tag Insert are all answered by the filters — zero segment file
// reads — while present tags are still found in every segment.
func TestAbsentLookupsReadNoSegment(t *testing.T) {
	p := testPlatform()
	cfg := tieredConfig(t, p, t.TempDir())
	cfg.MemtableBytes = 4 << 10
	e := openTest(t, cfg)
	const n = 200
	for i := 0; i < n; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segs := e.Stats().Segments
	if segs < 8 {
		t.Fatalf("only %d segments; the test wants at least 8", segs)
	}

	// The memtable is empty after the checkpoint, so a few inserts fit
	// without a flush changing the segment list mid-count.
	const lookups, inserts = 100, 10
	absent := absentEverywhere(e, 7, 2*lookups+inserts)
	before := e.Stats()
	for _, tag := range absent[:lookups] {
		if _, status, err := get1(e, tag); err != nil || status != storeengine.StatusMiss {
			t.Fatalf("Get(absent) = %v, %v", status, err)
		}
	}
	for _, tag := range absent[lookups : 2*lookups] {
		if ok, err := contains1(e, tag); err != nil || ok {
			t.Fatalf("Contains(absent) = %v, %v", ok, err)
		}
	}
	for _, tag := range absent[2*lookups:] {
		if ok, err := insert1(e, tag, recOf("fresh")); err != nil || !ok {
			t.Fatalf("Insert(fresh) = %v, %v", ok, err)
		}
	}
	after := e.Stats()
	if after.Flushes != before.Flushes {
		t.Fatalf("the inserts flushed; shrink them")
	}
	if got := after.SegmentProbes - before.SegmentProbes; got != 0 {
		t.Errorf("%d segment file probes for %d absent lookups, want 0", got, len(absent))
	}
	if got, want := after.FilterSkips-before.FilterSkips, int64(len(absent)*segs); got != want {
		t.Errorf("FilterSkips rose by %d, want %d (every lookup skips every segment)", got, want)
	}

	// Present tags are still found, at about one file probe each: the
	// segment that holds the tag, plus the odd false positive above it.
	for i := 0; i < n; i++ {
		mustGet(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if got := e.Stats().SegmentProbes - after.SegmentProbes; got > n+n/10 {
		t.Errorf("%d probes for %d present tags, want about one each", got, n)
	}
}

// TestTieringPolicy pins pickRun and sizeClass on hand-built size
// lists: which run is chosen, what rides along, the fan-in cap, and
// the fixed point.
func TestTieringPolicy(t *testing.T) {
	const base = 1 << 20
	for size, want := range map[int64]int{0: 0, base: 0, 2*base - 1: 0, 2 * base: 1, 4 * base: 1, 8*base - 1: 1, 8 * base: 2, 16 * base: 2, 32 * base: 3} {
		if got := sizeClass(size, base); got != want {
			t.Errorf("sizeClass(%d) = %d, want %d", size, got, want)
		}
	}
	segsOf := func(mib ...int64) []*segment {
		out := make([]*segment, len(mib))
		for i, m := range mib {
			out[i] = &segment{size: m * base}
		}
		return out
	}
	many := make([]int64, 20)
	for i := range many {
		many[i] = 1
	}
	for _, tc := range []struct {
		name   string
		sizes  []int64
		lo, hi int
		ok     bool
	}{
		{"empty", nil, 0, 0, false},
		{"three of a class is not a run", []int64{1, 1, 1}, 0, 0, false},
		{"four of a class", []int64{1, 1, 1, 1}, 0, 4, true},
		{"the whole run, not just four", []int64{16, 1, 1, 1, 1, 1, 1}, 1, 7, true},
		{"oldest eligible run first", []int64{4, 4, 4, 4, 16, 4, 4, 4, 4}, 0, 4, true},
		{"a bigger segment splits a run", []int64{1, 1, 4, 1, 1}, 0, 0, false},
		{"a smaller segment caught in a run rides along", []int64{16, 4, 4, 1, 4, 4}, 1, 6, true},
		{"so do smaller ones after it", []int64{4, 4, 4, 4, 1, 1}, 0, 6, true},
		{"highest eligible class first", []int64{4, 4, 4, 1, 1, 1, 1, 4}, 0, 8, true},
		{"mixed classes at rest", []int64{64, 16, 16, 16, 4, 4, 1, 1, 1}, 0, 0, false},
		{"fan-in is capped", many, 0, mergeMaxRun, true},
	} {
		lo, hi, ok := pickRun(segsOf(tc.sizes...), base)
		if lo != tc.lo || hi != tc.hi || ok != tc.ok {
			t.Errorf("%s: pickRun = [%d:%d] %v, want [%d:%d] %v", tc.name, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}

// TestMergeKeepsTombstonesAboveOlderSegments is the tombstone rule: a
// merge whose run stops short of the oldest segment must carry its
// tombstones along, or the deleted tag would resurrect from below; a
// merge that reaches the oldest segment drops them.
func TestMergeKeepsTombstonesAboveOlderSegments(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	// An oldest class-1 segment holding old0..old3, then four class-0
	// segments: the tombstone of old1, then new0..new2.
	e, blob := midListRun(t, tieredConfig(t, p, dir), osFS{})
	oldest := e.segments[0]
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	mustBeAtFixedPoint(t, e)
	if st := e.Stats(); st.Segments != 2 || e.segments[0] != oldest {
		t.Fatalf("want the oldest segment untouched plus one merged run, got %d segments", st.Segments)
	}
	if _, found, dead, err := e.segments[1].find(tagOf("old1"), false); err != nil || !found || !dead {
		t.Fatalf("merged run lost the tombstone: found=%v dead=%v err=%v", found, dead, err)
	}
	if _, status, _ := get1(e, tagOf("old1")); status != storeengine.StatusMiss {
		t.Fatalf("removed tag resurrected after a merge above the oldest segment: %v", status)
	}
	if e.Len() != 6 {
		t.Fatalf("Len = %d, want 6", e.Len())
	}

	// A merge that does reach the oldest segment sheds the tombstone
	// and the version it shadowed.
	e.mu.Lock()
	err := e.mergeRun(0, 2)
	e.mu.Unlock()
	if err != nil {
		t.Fatalf("mergeRun: %v", err)
	}
	if e.segments[0].mayContain(tagOf("old1")) {
		if _, found, _, _ := e.segments[0].find(tagOf("old1"), false); found {
			t.Fatal("bottom merge kept a tombstone or a shadowed version")
		}
	}
	if e.segments[0].count != 6 {
		t.Fatalf("bottom merge wrote %d records, want the 6 live ones", e.segments[0].count)
	}
	e.Close()
	e2 := openTest(t, tieredConfig(t, p, dir))
	if _, status, _ := get1(e2, tagOf("old1")); status != storeengine.StatusMiss {
		t.Fatalf("removed tag resurrected after reopen: %v", status)
	}
	for _, k := range []string{"old0", "old2", "old3", "new0", "new1", "new2"} {
		mustGet(t, e2, k, blob)
	}
}

// TestMergeMemoryIndependentOfRunSize: merging a 64 MiB run allocates
// (in total, not just at its peak) less than 16 MiB — records stream
// from cursors into the writer and the read-back verification streams
// too, so no part of the run is ever materialised.
func TestMergeMemoryIndependentOfRunSize(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 128 MiB")
	}
	p := enclave.NewPlatform(enclave.Config{PlatformSeed: []byte("logengine-test-seed"), EPCBytes: 1 << 30})
	cfg := testConfig(t, p, t.TempDir())
	cfg.MemtableBytes = 16 << 20
	cfg.Fsync = FsyncNone
	cfg.Logf = nil
	e := openTest(t, cfg)
	const (
		recSize = 64 << 10
		perSeg  = 256 // 16 MiB of values per segment
	)
	blob := make([]byte, recSize)
	for s := 0; s < 4; s++ {
		for i := 0; i < perSeg; i++ {
			rec := recOf("")
			rec.Blob, rec.BlobSize = blob, recSize
			if ok, err := insert1(e, seededTag(uint64(s), i), rec); err != nil || !ok {
				t.Fatalf("Insert: %v %v", ok, err)
			}
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	st := e.Stats()
	if st.Segments != 4 || st.SegmentBytes < 64<<20 {
		t.Fatalf("setup: %d segments, %d bytes; want 4 segments, >= 64 MiB", st.Segments, st.SegmentBytes)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	runtime.ReadMemStats(&after)
	if got := e.Stats(); got.Segments != 1 || got.CompactionBytesRead != st.SegmentBytes {
		t.Fatalf("merge read %d bytes into %d segments, want %d into 1", got.CompactionBytesRead, got.Segments, st.SegmentBytes)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
		t.Fatalf("merging %d MiB allocated %d MiB, want < 16", st.SegmentBytes>>20, grew>>20)
	}
	if got, status, err := get1(e, seededTag(2, 17)); err != nil || status != storeengine.StatusHit || len(got.Blob) != recSize {
		t.Fatalf("Get after merge = %v, %v", status, err)
	}
}

// TestOpenRefusesForeignSealIdentity: a data directory sealed under
// another platform seed must fail Open with an error that says so —
// not open "fine" and answer every lookup dangling — and must be left
// exactly as it was, so the right seed still serves every record.
func TestOpenRefusesForeignSealIdentity(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, tieredConfig(t, testPlatform(), dir))
	const n = 40
	for i := 0; i < n; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	listing := func() map[string]int64 {
		out := make(map[string]int64)
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		for _, de := range des {
			info, err := de.Info()
			if err != nil {
				t.Fatalf("Info: %v", err)
			}
			out[de.Name()] = info.Size()
		}
		return out
	}
	before := listing()

	other := enclave.NewPlatform(enclave.Config{PlatformSeed: []byte("some-other-machine")})
	eng, err := Open(tieredConfig(t, other, dir))
	if err == nil {
		eng.Close()
		t.Fatal("Open under a different platform seed succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "different platform seed") || !strings.Contains(msg, "store measurement") {
		t.Fatalf("Open error does not name the cause: %v", err)
	}
	if after := listing(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refused Open modified the directory:\n before %v\n after  %v", before, after)
	}

	e2 := openTest(t, tieredConfig(t, testPlatform(), dir))
	if e2.Len() != n {
		t.Fatalf("Len under the right seed = %d, want %d", e2.Len(), n)
	}
	for i := 0; i < n; i++ {
		mustGet(t, e2, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
}

// TestChurnKeepsSegmentsBounded: under FIFO churn — every insert
// paired with the removal of the oldest live record, compaction now
// and then — the live set is constant, so segment count and bytes must
// level off. Merge outputs there are mostly tombstones and land in
// unpredictable classes; a policy that merged only exact-class runs
// stranded small segments between bigger ones and grew without bound.
func TestChurnKeepsSegmentsBounded(t *testing.T) {
	p := testPlatform()
	cfg := tieredConfig(t, p, t.TempDir())
	cfg.Logf = nil
	e := openTest(t, cfg)
	const live, churn = 300, 3000
	val := strings.Repeat("v", 40)
	for i := 0; i < live; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), val)
	}
	var liveBytes, worstSegs int
	var worstBytes int64
	for i := live; i < live+churn; i++ {
		if _, found, err := e.Remove(tagOf(fmt.Sprintf("k%d", i-live))); err != nil || !found {
			t.Fatalf("Remove k%d: %v %v", i-live, found, err)
		}
		mustInsert(t, e, fmt.Sprintf("k%d", i), val)
		if i%50 != 0 {
			continue
		}
		if err := e.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		mustBeAtFixedPoint(t, e)
		st := e.Stats()
		if i == live { // nothing removed yet: what the live set costs on disk
			liveBytes = int(st.SegmentBytes)
		}
		if i > live+churn/2 { // past the warm-up
			worstSegs = max(worstSegs, st.Segments)
			worstBytes = max(worstBytes, st.SegmentBytes)
		}
	}
	if e.Len() != live {
		t.Fatalf("Len = %d, want %d", e.Len(), live)
	}
	if worstSegs > 24 || worstBytes > 8*int64(liveBytes) {
		t.Fatalf("after %d churn steps: up to %d segments and %d bytes for a live set of %d bytes", churn, worstSegs, worstBytes, liveBytes)
	}
	t.Logf("up to %d segments, %.1fx the live set's bytes", worstSegs, float64(worstBytes)/float64(liveBytes))
}

// TestBackgroundCompactorMerges runs the compaction loop a positive
// CompactInterval starts: flushes alone pile up enough same-class
// segments, the loop merges them without a Compact call, and Close
// stops it (the package's TestMain fails on a goroutine left behind).
func TestBackgroundCompactorMerges(t *testing.T) {
	cfg := tieredConfig(t, testPlatform(), t.TempDir())
	cfg.CompactInterval = time.Millisecond
	e := openTest(t, cfg)
	for i := 0; e.Stats().Flushes < 2*mergeMinRun; i++ {
		mustInsert(t, e, fmt.Sprint("k", i), strings.Repeat("v", 200))
	}
	for deadline := time.Now().Add(5 * time.Second); e.Stats().Compactions == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no background merge within 5s: %+v", e.Stats())
		}
	}
}
