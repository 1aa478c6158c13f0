package logengine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// BenchmarkHotLogMemtableGet is the log engine's hot read path: the
// requested record is memtable-resident, so the lookup never touches a
// segment file. This is the common case for a freshly warmed store and
// the path `make bench-regress` pins against bench/baseline.txt.
func BenchmarkHotLogMemtableGet(b *testing.B) {
	e := benchEngine(b, b.TempDir(), 64<<20) // everything stays memtable-resident

	const n = 512
	tags := make([]mle.Tag, n)
	for i := range tags {
		tags[i] = tagOf(fmt.Sprintf("bench-%d", i))
		rec := recOf(fmt.Sprintf("value-%d", i))
		if ok, err := insert1(e, tags[i], rec); err != nil || !ok {
			b.Fatalf("Insert: %v %v", ok, err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, status, err := get1(e, tags[i%n])
		if err != nil || status != storeengine.StatusHit {
			b.Fatalf("Get = %v, %v", status, err)
		}
	}
}

// benchEngine opens a log engine for a hot-path benchmark: no fsync, no
// timer, and an EPC budget no memtable size runs into.
func benchEngine(b testing.TB, dir string, memtableBytes int64) *Engine {
	b.Helper()
	p := enclave.NewPlatform(enclave.Config{EPCBytes: 1 << 40, EPCUsableBytes: 1 << 40})
	enc, err := p.Create("bench-store", []byte("store code"))
	if err != nil {
		b.Fatalf("Create: %v", err)
	}
	e, err := Open(Config{
		Dir:             dir,
		Enclave:         enc,
		MemtableBytes:   memtableBytes,
		Fsync:           FsyncNone,
		CompactInterval: -1,
	})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// BenchmarkHotLogSegmentMiss is the paper's initial computation as the
// log engine sees it: a GET that misses, then a PUT whose
// first-version-wins check must find nothing, against a store of 16
// flushed segments. The per-segment key filters answer both lookups;
// the benchmark fails if a single one reads a segment file.
func BenchmarkHotLogSegmentMiss(b *testing.B) {
	e := benchEngine(b, b.TempDir(), 1<<30)
	const segments, perSegment = 16, 2048
	for s := 0; s < segments; s++ {
		for i := 0; i < perSegment; i++ {
			if ok, err := insert1(e, seededTag(uint64(s), i), recOf("stored")); err != nil || !ok {
				b.Fatalf("Insert: %v %v", ok, err)
			}
		}
		if err := e.Checkpoint(); err != nil {
			b.Fatalf("Checkpoint: %v", err)
		}
	}
	if got := e.Stats().Segments; got != segments {
		b.Fatalf("%d segments, want %d", got, segments)
	}
	// The memtable budget is never reached, so the segment list — and
	// with it the set of tags no filter matches — is fixed for the run.
	fresh := absentEverywhere(e, 99, b.N)
	rec := recOf("fresh")
	before := e.Stats()

	b.ReportAllocs()
	b.ResetTimer()
	for _, tag := range fresh {
		if _, status, err := get1(e, tag); err != nil || status != storeengine.StatusMiss {
			b.Fatalf("Get = %v, %v", status, err)
		}
		if ok, err := insert1(e, tag, rec); err != nil || !ok {
			b.Fatalf("Insert = %v, %v", ok, err)
		}
	}
	b.StopTimer()
	after := e.Stats()
	if probes := after.SegmentProbes - before.SegmentProbes; probes != 0 {
		b.Fatalf("%d segment file reads over %d miss+insert pairs, want 0", probes, b.N)
	}
	if skips, want := after.FilterSkips-before.FilterSkips, int64(2*b.N*segments); skips != want {
		b.Fatalf("FilterSkips rose by %d, want %d", skips, want)
	}
}

// BenchmarkHotLogMergeRun times one streaming merge of four 4 MiB
// segments (4 KiB records), manifest swap included: the unit of work
// size-tiered compaction repeats. The output's index, filter and fence
// are built as it is written, so nothing reads it back.
func BenchmarkHotLogMergeRun(b *testing.B) {
	const fanIn, perSegment, blobSize = 4, 1024, 4 << 10
	// Build the inputs once; every iteration hard-links them into a
	// fresh engine directory, because a merge deletes what it read.
	tmpl := b.TempDir()
	src := benchEngine(b, tmpl, 1<<30)
	rec := recOf(string(make([]byte, blobSize)))
	for s := 0; s < fanIn; s++ {
		for i := 0; i < perSegment; i++ {
			if ok, err := insert1(src, seededTag(uint64(s), i), rec); err != nil || !ok {
				b.Fatalf("Insert: %v %v", ok, err)
			}
		}
		if err := src.Checkpoint(); err != nil {
			b.Fatalf("Checkpoint: %v", err)
		}
	}
	names := segmentNames(src.segments)
	b.SetBytes(src.Stats().SegmentBytes)

	dir := b.TempDir()
	e := benchEngine(b, dir, 1<<30)
	e.cfg.Enclave = src.cfg.Enclave // same sealing identity as the inputs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e.segments = e.segments[:0]
		for _, name := range names {
			path := filepath.Join(dir, fmt.Sprintf("in-%d-%s", i, name))
			if err := os.Link(filepath.Join(tmpl, name), path); err != nil {
				b.Fatalf("Link: %v", err)
			}
			seg, err := openSegment(osFS{}, path, 0, nil)
			if err != nil {
				b.Fatalf("openSegment: %v", err)
			}
			e.segments = append(e.segments, seg)
		}
		b.StartTimer()
		if err := e.mergeRun(0, fanIn); err != nil {
			b.Fatalf("mergeRun: %v", err)
		}
		b.StopTimer()
		out := e.segments[0]
		if out.count != fanIn*perSegment {
			b.Fatalf("merged %d records, want %d", out.count, fanIn*perSegment)
		}
		out.close()
		os.Remove(out.path)
		b.StartTimer()
	}
}

// newLogInsert returns an insert of a fresh 4 KiB record through
// Engine.Insert with a 2 MiB memtable and no fsync: the log engine's
// share of a miss_durable PUT, WAL append and memtable apply, with a
// freeze every ~490 inserts amortized in. The background writer makes
// each segment beside the inserts; its time counts only where an
// insert waits for it, its allocations always. Every 16 segments it
// starts over on an empty directory, so neither the disk nor the
// first-version-wins filter checks grow with b.N.
func newLogInsert(tb testing.TB) func() {
	const memtable, blob, maxSegments = 2 << 20, 4 << 10, 16
	rec := recOf(string(bytes.Repeat([]byte{0xAB}, blob)))
	dir := tb.TempDir()
	e := benchEngine(tb, dir, memtable)
	items := make([]storeengine.Item, 1)
	i := 0
	segments := func() int { // the background writer splices them in
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.segments)
	}
	return func() {
		if segments() == maxSegments {
			if err := e.Close(); err != nil {
				tb.Fatalf("Close: %v", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				tb.Fatalf("RemoveAll: %v", err)
			}
			e = benchEngine(tb, dir, memtable)
		}
		items[0] = storeengine.Item{Tag: seededTag(44, i), Record: rec}
		i++
		if installed, err := e.Insert(items); err != nil || !installed[0] {
			tb.Fatalf("Insert = %v, %v", installed, err)
		}
	}
}

// BenchmarkHotLogInsert is newLogInsert's insert, the write path `make
// bench-regress` pins against bench/baseline.txt.
func BenchmarkHotLogInsert(b *testing.B) {
	insert := newLogInsert(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert()
	}
}

// TestLogInsertAllocBound holds the log engine's write path to what it
// must allocate: the memtable's copy of the record, its entry, its WAL
// frame — whose sealed record the segment reuses, so a flush seals
// nothing — the result slice, and a flush's share of the frozen run's
// and the new segment's indexes. The path measures 4 allocations and
// ~10 KiB per insert; a per-record copy coming back costs another 4 KiB.
func TestLogInsertAllocBound(t *testing.T) {
	const n, maxAllocs, maxBytes = 2048, 5, 12 << 10
	insert := newLogInsert(t)
	for i := 0; i < 16; i++ {
		insert() // warm the frame scratch and the memtable's map
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		insert()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	size := float64(after.TotalAlloc-before.TotalAlloc) / n
	if allocs > maxAllocs || size > maxBytes {
		t.Errorf("a 4 KiB insert allocates %.1f times and %.0f B, want <= %d and <= %d", allocs, size, maxAllocs, maxBytes)
	}
}
