package logengine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"speed/internal/enclave"
	storeengine "speed/internal/store/engine"
	"speed/internal/store/logengine/logenginetest"
)

// copyDir clones a data directory so each simulated crash point gets
// its own filesystem state.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o700); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o600); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}
}

// TestWALTruncatedAtEveryByte is the exhaustive torn-write harness:
// the WAL — two PUT messages of three records each — is cut at every
// byte offset, not just frame boundaries, and each truncated state is
// recovered. The invariant is atomicity per record: recovery yields
// exactly the records whose frames are fully intact, each bit-identical
// to what was written, and never a partial or corrupted entry — so of a
// message torn mid-way, a prefix of its records. Monotonicity must hold
// too: a longer prefix never recovers fewer records.
func TestWALTruncatedAtEveryByte(t *testing.T) {
	p := testPlatform()
	srcDir := t.TempDir()
	e := openTest(t, testConfig(t, p, srcDir))
	const n = 6
	for i := 0; i < n; i += 3 {
		mustInsertMessage(t, e, i, i+3)
	}
	e.Crash() // everything stays in the WAL: no flush happened

	walPath := filepath.Join(srcDir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if len(full) == 0 {
		t.Fatal("wal is empty; nothing to truncate")
	}

	scratch := t.TempDir()
	prevRecovered := -1
	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(scratch, fmt.Sprintf("cut-%05d", cut))
		copyDir(t, srcDir, dir)
		if err := os.WriteFile(filepath.Join(dir, walName), full[:cut], 0o600); err != nil {
			t.Fatalf("truncate copy: %v", err)
		}

		cfg := testConfig(t, p, dir)
		eng, err := Open(cfg)
		if err != nil {
			t.Fatalf("cut %d: Open failed: %v", cut, err)
		}
		recovered := 0
		for i := 0; i < n; i++ {
			rec, status, err := get1(eng, tagOf(fmt.Sprintf("k%d", i)))
			if err != nil {
				t.Fatalf("cut %d: Get(k%d): %v", cut, i, err)
			}
			switch status {
			case storeengine.StatusHit:
				// All-or-nothing: a recovered record must be exactly
				// what was written.
				if got, want := string(rec.Blob), fmt.Sprintf("value-%d", i); got != want {
					t.Fatalf("cut %d: k%d recovered corrupt blob %q, want %q", cut, i, got, want)
				}
				if string(rec.Challenge) != "challenge-16byte" || string(rec.WrappedKey) != "wrappedkey16byte" {
					t.Fatalf("cut %d: k%d recovered corrupt metadata", cut, i)
				}
				recovered++
			case storeengine.StatusMiss:
				// Acceptable only for the torn suffix: records append in
				// order, so a miss after a hit would mean a hole.
			default:
				t.Fatalf("cut %d: Get(k%d) status = %v", cut, i, status)
			}
		}
		// Records were appended in key order, so the recovered set must
		// be a prefix: k0..k(recovered-1) hits, the rest misses.
		for i := 0; i < recovered; i++ {
			if _, status, _ := get1(eng, tagOf(fmt.Sprintf("k%d", i))); status != storeengine.StatusHit {
				t.Fatalf("cut %d: recovered set has a hole at k%d", cut, i)
			}
		}
		if recovered < prevRecovered {
			t.Fatalf("cut %d: recovered %d records, but cut %d recovered %d (longer prefix lost data)",
				cut, recovered, cut-1, prevRecovered)
		}
		prevRecovered = recovered
		if eng.Len() != recovered {
			t.Fatalf("cut %d: Len = %d, want %d", cut, eng.Len(), recovered)
		}
		// The engine must stay writable after recovering a torn log.
		if ok, err := insert1(eng, tagOf(fmt.Sprintf("post-%d", cut)), recOf("post")); err != nil || !ok {
			t.Fatalf("cut %d: post-recovery Insert: %v %v", cut, ok, err)
		}
		eng.Close()
		os.RemoveAll(dir)
	}
	if prevRecovered != n {
		t.Fatalf("full wal recovered %d records, want %d", prevRecovered, n)
	}
}

// mustInsertMessage stores k<lo>..k<hi-1> (values value-<i>) as one PUT
// message.
func mustInsertMessage(t *testing.T, e *Engine, lo, hi int) {
	t.Helper()
	var msg []storeengine.Item
	for i := lo; i < hi; i++ {
		msg = append(msg, storeengine.Item{Tag: tagOf(fmt.Sprintf("k%d", i)), Record: recOf(fmt.Sprintf("value-%d", i))})
	}
	installed, err := e.Insert(msg)
	if err != nil || slices.Contains(installed, false) {
		t.Fatalf("Insert(k%d..k%d) = %v, %v; want all installed", lo, hi-1, installed, err)
	}
}

// TestInsertMessageCommitsOnce pins group commit per message under
// fsync=commit: the records of a three-item PUT are made durable by one
// fsync, and nothing is applied — so nothing acknowledged, nothing
// readable — before it: when the fsync fails, no item is installed.
func TestInsertMessageCommitsOnce(t *testing.T) {
	p := testPlatform()
	e := openTest(t, testConfig(t, p, t.TempDir())) // Fsync zero value: commit
	before := e.Stats().WALSyncs
	mustInsertMessage(t, e, 0, 3)
	if got := e.Stats().WALSyncs - before; got != 1 {
		t.Errorf("a 3-item PUT message fsynced the WAL %d times, want 1", got)
	}

	// Writes to the null device succeed and its fsync does not.
	null, err := os.OpenFile(os.DevNull, os.O_RDWR, 0)
	if err != nil {
		t.Skipf("no null device: %v", err)
	}
	if null.Sync() == nil {
		null.Close()
		t.Skip("the null device accepts fsync here")
	}
	e.mu.Lock()
	real := e.wal.f
	e.wal.f = null
	e.mu.Unlock()
	var msg []storeengine.Item
	for i := 3; i < 6; i++ {
		msg = append(msg, storeengine.Item{Tag: tagOf(fmt.Sprintf("k%d", i)), Record: recOf("lost")})
	}
	installed, err := e.Insert(msg)
	if err == nil || slices.Contains(installed, true) {
		t.Fatalf("Insert over a failing fsync = %v, %v; want an error and nothing installed", installed, err)
	}
	e.mu.Lock()
	e.wal.f = real
	e.mu.Unlock()
	null.Close()
	for i := 3; i < 6; i++ {
		if _, status, err := get1(e, tagOf(fmt.Sprintf("k%d", i))); err != nil || status != storeengine.StatusMiss {
			t.Errorf("k%d after the failed commit: status %v, %v; want a miss", i, status, err)
		}
	}
	if e.Len() != 3 {
		t.Errorf("Len = %d after the failed commit, want 3", e.Len())
	}
}

// TestInsertAllocFailureMidMessage exhausts enclave memory on the third
// record of a PUT message: the first two are installed, the third is
// not, and the WAL agrees with the memtable — a compensating delete
// follows the third record's frame, so a crash and replay recover
// exactly the two.
func TestInsertAllocFailureMidMessage(t *testing.T) {
	seed := []byte("logengine-test-seed")
	dir := t.TempDir()
	// Room for two memtable entries, not three. An entry is charged its
	// dictionary slot, not its ciphertext.
	blob := string(bytes.Repeat([]byte("x"), 100))
	perRec := storeengine.Charge(recOf(blob))
	tight := enclave.NewPlatform(enclave.Config{PlatformSeed: seed, EPCBytes: 2*perRec + perRec/2})
	e := openTest(t, testConfig(t, tight, dir))
	var msg []storeengine.Item
	for i := 0; i < 3; i++ {
		msg = append(msg, storeengine.Item{Tag: tagOf(fmt.Sprintf("k%d", i)), Record: recOf(blob)})
	}
	installed, err := e.Insert(msg)
	if !errors.Is(err, enclave.ErrOutOfMemory) || !slices.Equal(installed, []bool{true, true, false}) {
		t.Fatalf("Insert = %v, %v; want [true true false] and ErrOutOfMemory", installed, err)
	}
	check := func(e *Engine, when string) {
		t.Helper()
		for i, want := range []storeengine.GetStatus{storeengine.StatusHit, storeengine.StatusHit, storeengine.StatusMiss} {
			if _, status, err := get1(e, tagOf(fmt.Sprintf("k%d", i))); err != nil || status != want {
				t.Errorf("%s: k%d status %v, %v; want %v", when, i, status, err, want)
			}
		}
		if e.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2", when, e.Len())
		}
	}
	check(e, "after the failed message")
	e.Crash()
	check(openTest(t, testConfig(t, enclave.NewPlatform(enclave.Config{PlatformSeed: seed}), dir)), "after crash and replay")
}

// TestCrashDuringCompaction crashes a merge at its most delicate point
// — output segment written and fsynced, directory synced, old manifest
// still live — and recovers from that image: the orphan output is
// deleted and every record is served from the old segments. The image
// of the completed merge recovers too.
func TestCrashDuringCompaction(t *testing.T) {
	p := testPlatform()
	fsys := newMemFS(crashDir)
	e := openOn(t, testConfig(t, p, crashDir), fsys)
	const n = 8
	for i := 0; i < n; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	if e.Stats().Segments != n {
		t.Fatalf("want %d segments, got %d", n, e.Stats().Segments)
	}
	start := fsys.ops()
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	e.Close()

	// The crash point: just after the directory fsync that follows the
	// merged segment's write.
	crash := fsys.image(fsys.find(t, start, opDirSync, "") + 1)
	eng := openOn(t, testConfig(t, p, crashDir), crash)
	if got := eng.Stats().Segments; got != n {
		t.Errorf("recovered with %d segments, want the %d pre-compaction ones", got, n)
	}
	if eng.Len() != n {
		t.Errorf("recovered Len = %d, want %d", eng.Len(), n)
	}
	for i := 0; i < n; i++ {
		mustGet(t, eng, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if segs := crash.segmentFiles(); len(segs) != n {
		t.Errorf("recovered dir holds %d segment files, want %d (orphan not deleted)", len(segs), n)
	}
	// And compaction still works after the recovery.
	if err := eng.Compact(); err != nil {
		t.Fatalf("post-recovery Compact: %v", err)
	}
	mustBeAtFixedPoint(t, eng)
	if st := eng.Stats(); st.Compactions == 0 || st.Segments >= n {
		t.Errorf("post-recovery compaction merged nothing: %d merges, %d segments", st.Compactions, st.Segments)
	}
	for i := 0; i < n; i++ {
		mustGet(t, eng, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}

	// The completed compaction: old segments deleted, one merged segment.
	eng2 := openOn(t, testConfig(t, p, crashDir), fsys.clone())
	if eng2.Len() != n {
		t.Errorf("post-commit reopen Len = %d, want %d", eng2.Len(), n)
	}
	for i := 0; i < n; i++ {
		mustGet(t, eng2, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
}

// midListRun builds the directory state mergeRun's middle-of-the-list
// manifest swap starts from: an oldest class-1 segment (itself a merge
// output, holding old0..old3), then four class-0 segments — the
// tombstone of old1, then new0..new2 — which the policy merges as
// segments[1:5]. It returns the engine and the big record value.
func midListRun(t *testing.T, cfg Config, fsys fileSystem) (*Engine, string) {
	t.Helper()
	e := openOn(t, cfg, fsys)
	// One record per segment, each segment a little smaller than the
	// memtable budget: class 0, and four of them merged class 1.
	blob := string(make([]byte, cfg.MemtableBytes*6/10))
	checkpoint := func() {
		t.Helper()
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		mustInsert(t, e, fmt.Sprintf("old%d", i), blob)
		checkpoint()
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, found, err := e.Remove(tagOf("old1")); err != nil || !found {
		t.Fatalf("Remove: %v %v", found, err)
	}
	checkpoint()
	for i := 0; i < 3; i++ {
		mustInsert(t, e, fmt.Sprintf("new%d", i), blob)
		checkpoint()
	}
	if lo, hi, ok := pickRun(e.segments, cfg.MemtableBytes); !ok || lo != 1 || hi != 5 {
		t.Fatalf("setup: eligible run [%d:%d] %v, want [1:5]", lo, hi, ok)
	}
	return e, blob
}

// mustServeMidListRun checks the logical content midListRun wrote:
// whichever side of the swap recovery landed on, the six live records
// are served and the removed one stays removed.
func mustServeMidListRun(t *testing.T, e *Engine, blob string) {
	t.Helper()
	if e.Len() != 6 {
		t.Errorf("Len = %d, want 6", e.Len())
	}
	for _, k := range []string{"old0", "old2", "old3", "new0", "new1", "new2"} {
		mustGet(t, e, k, blob)
	}
	if _, status, _ := get1(e, tagOf("old1")); status != storeengine.StatusMiss {
		t.Errorf("removed record resurrected: %v", status)
	}
}

// TestCrashAroundMidListManifestSwap crashes a merge of segments[1:5]
// on both sides of its manifest swap, the rename of MANIFEST.tmp.
// Before the swap the inputs are intact and the orphan output is
// deleted; after it the output is live — in the middle of the age
// order, although its id is the highest — and the inputs are deleted
// as orphans. Either way the tombstone in the run keeps shadowing the
// version in the oldest segment.
func TestCrashAroundMidListManifestSwap(t *testing.T) {
	p := testPlatform()
	fsys := newMemFS(crashDir)
	e, blob := midListRun(t, tieredConfig(t, p, crashDir), fsys)
	oldest := filepath.Base(e.segments[0].path)
	start := fsys.ops()
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	mustBeAtFixedPoint(t, e)
	output := filepath.Base(e.segments[1].path)
	e.Crash()

	swap := fsys.find(t, start, opRename, manifestName+".tmp")
	before := fsys.image(swap) // output written and fsynced, old manifest live
	if got := len(before.segmentFiles()); got != 6 {
		t.Fatalf("crash image holds %d segment files, want 5 inputs + 1 output", got)
	}
	pre := openOn(t, tieredConfig(t, p, crashDir), before)
	if got := pre.Stats().Segments; got != 5 {
		t.Errorf("before the swap: recovered %d segments, want the 5 inputs", got)
	}
	if files := before.segmentFiles(); len(files) != 5 || slices.Contains(files, output) {
		t.Errorf("before the swap: orphan output not deleted: %v", files)
	}
	mustServeMidListRun(t, pre, blob)
	if err := pre.Compact(); err != nil { // and the merge can be redone
		t.Fatalf("before the swap: Compact after recovery: %v", err)
	}
	mustServeMidListRun(t, pre, blob)

	// Right after the swap the inputs are not yet deleted.
	for name, img := range map[string]*memFS{"after the swap": fsys.image(swap + 1), "completed": fsys.clone()} {
		post := openOn(t, tieredConfig(t, p, crashDir), img)
		if got := segmentNames(post.segments); len(got) != 2 || got[0] != oldest || got[1] != output {
			t.Errorf("%s: recovered segments %v, want [%s %s]", name, got, oldest, output)
		}
		if files := img.segmentFiles(); len(files) != 2 {
			t.Errorf("%s: orphan inputs not deleted: %v", name, files)
		}
		mustServeMidListRun(t, post, blob)
	}
}

// TestMidListMergeTornAtEveryOffset cuts both files a mid-list merge
// writes — its output segment, an orphan until the swap, and the
// manifest's temporary file, which the rename commits — at every byte
// offset, in the image just before that rename. Neither is reachable
// before the rename, so whatever the cut, recovery serves the pre-merge
// state and leaves a directory the merge can run in again.
func TestMidListMergeTornAtEveryOffset(t *testing.T) {
	p := testPlatform()
	// Small records keep the files, and with them the number of cuts,
	// small.
	smallConfig := func() Config {
		cfg := tieredConfig(t, p, crashDir)
		cfg.MemtableBytes = 320
		cfg.Logf = nil
		return cfg
	}
	fsys := newMemFS(crashDir)
	e, blob := midListRun(t, smallConfig(), fsys)
	start := fsys.ops()
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	output := filepath.Base(e.segments[1].path)
	e.Crash()
	image := fsys.image(fsys.find(t, start, opRename, manifestName+".tmp"))

	try := func(file string, content []byte, cut int) {
		dir := image.clone()
		dir.put(file, content[:cut])
		eng, err := open(smallConfig(), dir)
		if err != nil {
			t.Fatalf("%s cut at %d: Open: %v", file, cut, err)
		}
		defer eng.Crash()
		if got := eng.Stats().Segments; got != 5 {
			t.Fatalf("%s cut at %d: %d segments, want the 5 inputs", file, cut, got)
		}
		mustServeMidListRun(t, eng, blob)
		if cut%97 == 0 { // now and then, the merge again
			if err := eng.Compact(); err != nil {
				t.Fatalf("%s cut at %d: Compact: %v", file, cut, err)
			}
			mustServeMidListRun(t, eng, blob)
		}
	}
	for _, file := range []string{output, manifestName + ".tmp"} {
		content := image.file(file)
		for cut := 0; cut <= len(content); cut++ {
			try(file, content, cut)
		}
	}
}

// TestRecoveryRejectsTamperedWAL distinguishes crash damage from
// tampering: flipping a bit inside a frame's payload while fixing up
// its CRC must fail recovery loudly, not silently truncate.
func TestRecoveryRejectsTamperedWAL(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	mustInsert(t, e, "a", "va")
	mustInsert(t, e, "b", "vb")
	e.Crash()

	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// Flip one payload byte of the first frame and recompute its CRC
	// so the frame passes the integrity check but not authentication.
	tampered := append([]byte(nil), data...)
	tampered[walFrameHeader+10] ^= 0xff
	length := int(uint32(tampered[0])<<24 | uint32(tampered[1])<<16 | uint32(tampered[2])<<8 | uint32(tampered[3]))
	payload := tampered[walFrameHeader : walFrameHeader+length]
	crc := crc32Of(payload)
	tampered[4], tampered[5], tampered[6], tampered[7] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	if err := os.WriteFile(walPath, tampered, 0o600); err != nil {
		t.Fatalf("write tampered wal: %v", err)
	}

	cfg := testConfig(t, p, dir)
	if eng, err := Open(cfg); err == nil {
		eng.Close()
		t.Fatal("recovery accepted a tampered WAL record")
	}
}

// fullDiskFS is osFS whose WAL writes fail on demand: with short set,
// the next one writes half its bytes and reports ENOSPC, as a full disk
// does; with stuck set, truncating the WAL fails too.
type fullDiskFS struct {
	osFS
	short, stuck bool
}

func (fs *fullDiskFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := fs.osFS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != walName {
		return f, err
	}
	return &fullDiskFile{file: f, fs: fs}, nil
}

type fullDiskFile struct {
	file
	fs *fullDiskFS
}

func (f *fullDiskFile) Write(p []byte) (int, error) {
	if !f.fs.short {
		return f.file.Write(p)
	}
	f.fs.short = false
	n, err := f.file.Write(p[:len(p)/2])
	if err == nil {
		err = syscall.ENOSPC
	}
	return n, err
}

func (f *fullDiskFile) Truncate(size int64) error {
	if f.fs.stuck {
		return syscall.EIO
	}
	return f.file.Truncate(size)
}

// TestFailedWALAppendKeepsLaterPuts cuts one WAL append short, as a
// full disk does, between two acknowledged, fsynced PUTs. The failed
// PUT must report its error, and the half frame it left must not sit
// in front of the next one: replay stops at a torn frame and truncates
// everything behind it, so the later PUT would be lost at reopen.
func TestFailedWALAppendKeepsLaterPuts(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	fsys := &fullDiskFS{}
	e, err := open(testConfig(t, p, dir), fsys) // fsync=commit
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	mustInsert(t, e, "a", "va")
	fsys.short = true
	if ok, err := insert1(e, tagOf("b"), recOf("vb")); err == nil || ok {
		t.Fatalf("Insert(b) on a full disk = %v, %v; want an error", ok, err)
	}
	mustInsert(t, e, "c", "vc")
	e.Crash()

	e = openTest(t, testConfig(t, p, dir))
	mustGet(t, e, "a", "va")
	mustGet(t, e, "c", "vc")
	if _, status, err := get1(e, tagOf("b")); err != nil || status != storeengine.StatusMiss {
		t.Fatalf("Get(b) = %v, %v; want a miss", status, err)
	}
}

// TestStuckWALRefusesInserts is the same short append with the
// rollback failing too: the log cannot be brought back to a frame
// boundary, so the engine must refuse every later insert rather than
// acknowledge one that replay would drop.
func TestStuckWALRefusesInserts(t *testing.T) {
	fsys := &fullDiskFS{}
	e, err := open(testConfig(t, testPlatform(), t.TempDir()), fsys)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	mustInsert(t, e, "a", "va")
	fsys.short, fsys.stuck = true, true
	if _, err := insert1(e, tagOf("b"), recOf("vb")); err == nil {
		t.Fatal("Insert(b) on a full disk succeeded")
	}
	fsys.stuck = false
	if ok, err := insert1(e, tagOf("c"), recOf("vc")); err == nil || ok {
		t.Fatalf("Insert(c) behind an unrolled torn frame = %v, %v; want an error", ok, err)
	}
	mustGet(t, e, "a", "va")
}

func crc32Of(b []byte) uint32 {
	return crc32.Checksum(b, crcTable)
}

// TestTamperedSegmentRecordIsDangling is the segment-side counterpart
// of TestRecoveryRejectsTamperedWAL: a flushed record whose sealed
// payload the untrusted disk altered (with the file CRC fixed up) is
// not caught at open — segments are not unsealed then — but a cold
// lookup must report it dangling, never a hit, while its neighbours in
// the same segment are still served.
func TestTamperedSegmentRecordIsDangling(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		mustInsert(t, e, k, "v"+k)
	}
	if err := e.Close(); err != nil { // flushes the memtable to one segment
		t.Fatalf("Close: %v", err)
	}
	logenginetest.TamperSegmentRecord(t, dir, tagOf("c"))

	e2 := openTest(t, testConfig(t, p, dir)) // cold cache: lookups go to the segment
	if _, status, err := get1(e2, tagOf("c")); err != nil || status != storeengine.StatusDangling {
		t.Fatalf("Get(tampered) = status %v, err %v; want StatusDangling", status, err)
	}
	for _, k := range keys {
		if k != "c" {
			mustGet(t, e2, k, "v"+k)
		}
	}
}

func mustEnclaveBalanced(t *testing.T, enc *enclave.Enclave) {
	t.Helper()
	if used := enc.HeapUsed(); used != 0 {
		t.Errorf("enclave heap leak: %d bytes still allocated", used)
	}
}

// TestEnclaveAccountingBalanced pins that the engine frees what it
// allocates: after inserts, flushes, cache churn and a close, the
// enclave heap returns to zero.
func TestEnclaveAccountingBalanced(t *testing.T) {
	p := testPlatform()
	cfg := testConfig(t, p, t.TempDir())
	cfg.MemtableBytes = 2 << 10
	cfg.CacheBytes = 2 << 10
	enc := cfg.Enclave
	e := openTest(t, cfg)
	for i := 0; i < 50; i++ {
		mustInsert(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 50; i++ {
		mustGet(t, e, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	for i := 0; i < 25; i++ {
		if _, found, err := e.Remove(tagOf(fmt.Sprintf("k%d", i))); err != nil || !found {
			t.Fatalf("Remove: %v %v", found, err)
		}
	}
	e.Close()
	mustEnclaveBalanced(t, enc)
}

// TestConcurrentLoadThenCrash drives inserts, checkpoints and
// compactions from concurrent goroutines (the -race build is the
// point), then simulates kill -9 and recovers. The invariant is the
// same as the torn-write harness, under concurrency: every insert
// acknowledged before the crash is present after reopen, bit-identical
// — challenge, wrapped key and blob — no matter whether it was caught
// in the WAL, a flushed segment, or a half-finished compaction.
func TestConcurrentLoadThenCrash(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))

	const (
		writers   = 4
		perWriter = 30
	)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Checkpoint(); err != nil && !errors.Is(err, storeengine.ErrClosed) {
				t.Errorf("Checkpoint: %v", err)
				return
			}
		}
	}()
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Compact(); err != nil && !errors.Is(err, storeengine.ErrClosed) {
				t.Errorf("Compact: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i += 3 {
				var msg []storeengine.Item
				for _, j := range []int{i, i + 1, i + 2} {
					key := fmt.Sprintf("w%d-k%d", w, j)
					msg = append(msg, storeengine.Item{Tag: tagOf(key), Record: recOf("val-" + key)})
				}
				installed, err := e.Insert(msg)
				if err != nil {
					t.Errorf("Insert(w%d-k%d..): %v", w, i, err)
					return
				}
				if slices.Contains(installed, false) {
					t.Errorf("Insert(w%d-k%d..) = %v, want all installed", w, i, installed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if t.Failed() {
		return
	}
	e.Crash()

	eng := openTest(t, testConfig(t, p, dir))
	if got := eng.Len(); got != writers*perWriter {
		t.Errorf("recovered Len = %d, want %d", got, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key := fmt.Sprintf("w%d-k%d", w, i)
			mustGet(t, eng, key, "val-"+key)
		}
	}
	// Recovery must also have left a commit-consistent directory: a
	// second crash-free reopen sees the identical state.
	eng.Crash()
	eng2 := openTest(t, testConfig(t, p, dir))
	if got := eng2.Len(); got != writers*perWriter {
		t.Errorf("second reopen Len = %d, want %d", got, writers*perWriter)
	}
	mustGet(t, eng2, "w0-k0", "val-w0-k0")
}
