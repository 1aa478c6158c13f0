package logengine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
	"speed/internal/telemetry"
)

// gate holds the background writer at a chosen file-system operation
// of a memFS (memFS.hold): arm sets the stop, the writer closes its
// arrived channel when it reaches the stop, and closing release lets it
// go on. A stop holds one operation, so a merge's own operations pass
// once the writer is held.
type gate struct {
	mu  sync.Mutex
	cur *stop
}

type stop struct {
	kind             opKind
	file             string // the file held; empty for any segment file
	arrived, release chan struct{}
}

// arm holds the next create or sync (kind) of a segment file.
func (g *gate) arm(kind opKind) *stop { return g.armFile(kind, "") }

// armFile holds the next create or sync (kind) of the file named file.
func (g *gate) armFile(kind opKind, file string) *stop {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cur = &stop{kind: kind, file: file, arrived: make(chan struct{}), release: make(chan struct{})}
	return g.cur
}

func (g *gate) hold(kind opKind, name string) {
	g.mu.Lock()
	s := g.cur
	_, seg := parseSegmentName(name)
	if s == nil || s.kind != kind || (s.file == "" && !seg) || (s.file != "" && s.file != name) {
		g.mu.Unlock()
		return
	}
	g.cur = nil
	g.mu.Unlock()
	close(s.arrived)
	<-s.release
}

// within fails the test unless fn returns within a second: an
// operation that waited for the held writer never would.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s did not complete while the writer was held", what)
	}
}

// fillUntilFreeze inserts fresh keys, prefix0, prefix1, ..., until one
// freezes the memtable, and returns them.
func fillUntilFreeze(t *testing.T, e *Engine, prefix string) []string {
	t.Helper()
	var keys []string
	for flushes := e.Stats().Flushes; e.Stats().Flushes == flushes; {
		key := fmt.Sprint(prefix, len(keys))
		mustInsert(t, e, key, "v-"+key)
		keys = append(keys, key)
	}
	return keys
}

// putsShortOfFull inserts fresh keys, prefix0, prefix1, ..., each
// within a second, as long as the next one would not fill the
// memtable, and returns them.
func putsShortOfFull(t *testing.T, e *Engine, prefix string) []string {
	t.Helper()
	var keys []string
	for {
		key := fmt.Sprint(prefix, len(keys))
		e.mu.Lock()
		fills := e.fullLocked(e.mem.Size() + storeengine.Size(recOf("v-"+key)))
		e.mu.Unlock()
		if fills {
			return keys
		}
		within(t, "PUT "+key, func() error { _, err := insert1(e, tagOf(key), recOf("v-"+key)); return err })
		keys = append(keys, key)
	}
}

// waitingPut starts a PUT of key, which fills the memtable, and returns
// once it waits for the frozen run, with its outcome to come.
func waitingPut(t *testing.T, e *Engine, key string) chan error {
	t.Helper()
	waits := e.Stats().FlushWaits
	done := make(chan error, 1)
	go func() { _, err := insert1(e, tagOf(key), recOf("v-"+key)); done <- err }()
	for e.Stats().FlushWaits == waits {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("the PUT that fills the memtable returned (%v) while the writer was held", err)
	default:
	}
	return done
}

// TestFlushDoesNotStallPuts holds the background writer at its
// segment's fsync and shows the store serving meanwhile: PUTs up to the
// next full memtable, bit-identical GET hits on the frozen tags,
// Contains, a Remove of a frozen tag and a merge all complete. Only the
// PUT that fills the next memtable waits, counted in FlushWaits, until
// the writer is let go; then everything reads back as written.
func TestFlushDoesNotStallPuts(t *testing.T) {
	fsys, g := newMemFS(crashDir), &gate{}
	fsys.hold = g.hold
	cfg := tieredConfig(t, testPlatform(), crashDir)
	cfg.MemtableBytes = 4 << 10
	e := openOn(t, cfg, fsys)
	for i := 0; i < mergeMinRun; i++ { // four segments for Compact to merge
		mustInsert(t, e, fmt.Sprint("old", i), "v-old")
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}

	held := g.arm(opSync)
	frozen := fillUntilFreeze(t, e, "frozen")
	<-held.arrived
	more := putsShortOfFull(t, e, "more")
	within(t, "GET of the frozen tags", func() error {
		tags := make([]mle.Tag, len(frozen))
		for i, key := range frozen {
			tags[i] = tagOf(key)
		}
		got, err := e.Get(tags, math.MaxInt)
		for i, l := range got {
			if l.Status != storeengine.StatusHit || !sameRecord(l.Record, recOf("v-"+frozen[i])) {
				return fmt.Errorf("%s: status %v, blob %q", frozen[i], l.Status, l.Record.Blob)
			}
		}
		return err
	})
	within(t, "Contains", func() error {
		present, err := e.Contains([]mle.Tag{tagOf(frozen[0]), tagOf("absent")})
		if err == nil && !slices.Equal(present, []bool{true, false}) {
			err = fmt.Errorf("Contains = %v, want [true false]", present)
		}
		return err
	})
	within(t, "Remove of a frozen tag", func() error {
		if _, found, err := e.Remove(tagOf(frozen[1])); err != nil || !found {
			return fmt.Errorf("found %v, %v", found, err)
		}
		return nil
	})
	within(t, "Compact", func() error {
		if err := e.Compact(); err != nil || e.Stats().Compactions == 0 {
			return fmt.Errorf("%d merges, %v", e.Stats().Compactions, err)
		}
		return nil
	})

	blocked := waitingPut(t, e, "filler")
	close(held.release)
	if err := <-blocked; err != nil {
		t.Fatalf("filling PUT: %v", err)
	}
	settle(t, e)
	if st := e.Stats(); st.FlushWaits != 1 {
		t.Errorf("FlushWaits = %d, want 1", st.FlushWaits)
	}
	for _, key := range slices.Concat(frozen, more, []string{"filler"}) {
		if key == frozen[1] {
			if _, status, _ := get1(e, tagOf(key)); status != storeengine.StatusMiss {
				t.Errorf("removed %s: %v, want a miss", key, status)
			}
			continue
		}
		mustGet(t, e, key, "v-"+key)
	}
}

// TestManifestCommitOffTheLock holds the background writer at the
// fsync of the manifest that commits its segment and shows a GET, a PUT
// and a Contains complete meanwhile: the manifest is written off the
// engine lock, and only the segment list is installed under it. Once
// the writer is let go, everything reads back as written.
func TestManifestCommitOffTheLock(t *testing.T) {
	fsys, g := newMemFS(crashDir), &gate{}
	fsys.hold = g.hold
	cfg := tieredConfig(t, testPlatform(), crashDir)
	cfg.MemtableBytes = 4 << 10
	e := openOn(t, cfg, fsys)
	held := g.armFile(opSync, manifestName+".tmp")
	release := sync.OnceFunc(func() { close(held.release) })
	t.Cleanup(release) // before the engine's Close, should a check fail
	frozen := fillUntilFreeze(t, e, "frozen")
	<-held.arrived
	within(t, "GET of a frozen tag", func() error {
		if rec, status, err := get1(e, tagOf(frozen[0])); err != nil || status != storeengine.StatusHit || !sameRecord(rec, recOf("v-"+frozen[0])) {
			return fmt.Errorf("status %v, err %v", status, err)
		}
		return nil
	})
	within(t, "PUT", func() error { _, err := insert1(e, tagOf("during"), recOf("v-during")); return err })
	within(t, "Contains", func() error {
		present, err := e.Contains([]mle.Tag{tagOf(frozen[1]), tagOf("during"), tagOf("absent")})
		if err == nil && !slices.Equal(present, []bool{true, true, false}) {
			err = fmt.Errorf("Contains = %v, want [true true false]", present)
		}
		return err
	})
	e.mu.Lock()
	installed := len(e.segments)
	e.mu.Unlock()
	if installed != 0 {
		t.Fatalf("%d segments installed before the manifest committed", installed)
	}
	release()
	settle(t, e)
	for _, key := range append(frozen, "during") {
		mustGet(t, e, key, "v-"+key)
	}
}

// TestFreezeCost pins what a PUT that freezes the memtable adds to an
// ordinary one: no enclave entry beyond the one that applies it, no
// fsync under fsync=none, and, timed on the real file system with the
// writer idle, at most a millisecond at the median.
func TestFreezeCost(t *testing.T) {
	fsys, g := newMemFS(crashDir), &gate{}
	fsys.hold = g.hold
	cfg := tieredConfig(t, testPlatform(), crashDir) // fsync=none
	e := openOn(t, cfg, fsys)
	held := g.arm(opCreate) // the writer's first operation
	var ecalls, ops int64
	for i := 0; e.Stats().Flushes == 0; i++ {
		before, start := cfg.Enclave.Metrics().ECalls, fsys.ops()
		if ok, err := insert1(e, seededTag(1, i), recOf("value")); err != nil || !ok {
			t.Fatalf("Insert: %v %v", ok, err)
		}
		ecalls, ops = cfg.Enclave.Metrics().ECalls-before, int64(fsys.ops()-start)
	}
	<-held.arrived
	fsys.mu.Lock()
	syncs := 0
	for _, op := range fsys.log[len(fsys.log)-int(ops):] {
		if op.kind == opSync || op.kind == opDirSync {
			syncs++
		}
	}
	fsys.mu.Unlock()
	close(held.release)
	if ecalls != 1 || syncs != 0 {
		t.Errorf("the freezing PUT made %d enclave entries and %d fsyncs, want 1 and 0", ecalls, syncs)
	}

	// Timing, on the operating system's file system, in rounds of 15
	// freezes: a neighbour's fsyncs can hold up the rename and create
	// for a while, so the bound has to hold in one of three rounds.
	const memtable, blob = 512 << 10, 4 << 10
	e = benchEngine(t, t.TempDir(), memtable)
	rec := recOf(string(make([]byte, blob)))
	median := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)/2]
	}
	for round, i := 1, 0; ; round++ {
		var freezing, ordinary []time.Duration
		for ; len(freezing) < 15; i++ {
			e.mu.Lock()
			freezes := e.fullLocked(e.mem.Size() + storeengine.Size(rec))
			e.mu.Unlock()
			if freezes {
				settle(t, e) // time the freeze, not a wait for the last one
			}
			start := time.Now()
			if ok, err := insert1(e, seededTag(2, i), rec); err != nil || !ok {
				t.Fatalf("Insert: %v %v", ok, err)
			}
			if d := time.Since(start); freezes {
				freezing = append(freezing, d)
			} else {
				ordinary = append(ordinary, d)
			}
		}
		extra := median(freezing) - median(ordinary)
		t.Logf("round %d: median PUT %v, median freezing PUT %v", round, median(ordinary), median(freezing))
		if extra <= time.Millisecond || raceEnabled {
			return
		}
		if round == 3 {
			t.Fatalf("a freezing PUT takes %v longer than an ordinary one at the median, want <= 1ms", extra)
		}
	}
}

// TestConcurrentOpsAcrossFreezes runs GETs, PUTs, Removes and Contains
// from several goroutines, each on its own keys and checked against its
// own map model as in TestEngineMatchesMapModel, while another
// goroutine compacts and checkpoints, across many freezes; then the
// directory reopens to the union of the models. The -race build is
// the point.
func TestConcurrentOpsAcrossFreezes(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredConfig(t, testPlatform(), dir)
	cfg.Logf = nil
	e := openTest(t, cfg)
	const workers, steps = 3, 400
	models := make([]map[string]string, workers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	churn := make(chan error, 1)
	go func() {
		defer close(churn)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			op := e.Compact
			if i%2 == 1 {
				op = e.Checkpoint
			}
			if err := op(); err != nil {
				churn <- err
				return
			}
		}
	}()
	for w := range models {
		models[w] = map[string]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			model := models[w]
			for step := 0; step < steps; step++ {
				key := fmt.Sprintf("w%d-k%d", w, rng.Intn(steps/2))
				val, live := model[key]
				switch r := rng.Intn(10); {
				case r < 5:
					v := fmt.Sprintf("%s-%d%s", key, step, strings.Repeat("x", rng.Intn(100)))
					if ok, err := insert1(e, tagOf(key), recOf(v)); err != nil || ok == live {
						t.Errorf("Insert(%s) = %v, %v; model live=%v", key, ok, err, live)
						return
					} else if ok {
						model[key] = v
					}
				case r < 7:
					if _, found, err := e.Remove(tagOf(key)); err != nil || found != live {
						t.Errorf("Remove(%s) = %v, %v; model live=%v", key, found, err, live)
						return
					}
					delete(model, key)
				case r < 9:
					rec, status, err := get1(e, tagOf(key))
					if err != nil || (status == storeengine.StatusHit) != live || live && !sameRecord(rec, recOf(val)) {
						t.Errorf("Get(%s) = %v %q, %v; model %q live=%v", key, status, rec.Blob, err, val, live)
						return
					}
				default:
					if ok, err := contains1(e, tagOf(key)); err != nil || ok != live {
						t.Errorf("Contains(%s) = %v, %v; model live=%v", key, ok, err, live)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-churn; err != nil {
		t.Fatalf("churn: %v", err)
	}
	if st := e.Stats(); st.Flushes < 10 {
		t.Fatalf("only %d freezes; the stream is too tame", st.Flushes)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	e = openTest(t, cfg)
	live := 0
	for _, model := range models {
		for key, val := range model {
			mustGet(t, e, key, val)
		}
		live += len(model)
	}
	if e.Len() != live {
		t.Errorf("reopened Len = %d, want %d", e.Len(), live)
	}
}

// TestCrashInBackgroundFlush is TestCrashModel's check over flushes the
// background writer runs while PUTs and Removes go on: in each round a
// PUT freezes the memtable, and more PUTs, a replace and a remove land
// in the new WAL while the writer is held before its segment and again
// at the segment's fsync. A crash after any operation — the WAL
// rotation, the segment's write, its fsync, the manifest commit, the
// frozen WAL's deletion and everything between — must recover the
// acknowledged state.
func TestCrashInBackgroundFlush(t *testing.T) {
	p := testPlatform()
	fsys, g := newMemFS(crashDir), &gate{}
	fsys.hold = g.hold
	cfg := crashConfig(t, p)
	cfg.MemtableBytes = 4 << 10 // room for the PUTs made while the writer is held
	e := openOn(t, cfg, fsys)
	var (
		keys []string
		acks []ack
	)
	mutate := func(key, val string) { // val "" removes
		start := fsys.ops()
		if val == "" {
			if _, found, err := e.Remove(tagOf(key)); err != nil || !found {
				t.Fatalf("Remove(%s) = %v, %v", key, found, err)
			}
		} else if ok, err := insert1(e, tagOf(key), recOf(val)); err != nil || !ok {
			t.Fatalf("Insert(%s) = %v, %v", key, ok, err)
		}
		if !slices.Contains(keys, key) {
			keys = append(keys, key)
		}
		acks = append(acks, ack{start: start, end: fsys.ops(), keys: []string{key}, vals: []string{val}})
	}
	for round := 0; round < 3; round++ {
		create := g.arm(opCreate)
		for flushes := e.Stats().Flushes; e.Stats().Flushes == flushes; {
			key := fmt.Sprintf("r%d-k%d", round, len(keys))
			mutate(key, "v-"+key)
		}
		<-create.arrived // nothing of the flush is logged yet
		frozen := keys[len(keys)-2]
		mutate(fmt.Sprintf("r%d-early", round), "early")
		sync := g.arm(opSync)
		close(create.release)
		<-sync.arrived // the segment is written, not yet fsynced
		mutate(frozen, "")
		mutate(frozen, "v2-"+frozen)
		mutate(fmt.Sprintf("r%d-late", round), "late")
		close(sync.release)
		settle(t, e)
	}
	e.Crash()

	// Every step of a flush is in the log.
	seen, segInodes := map[string]bool{}, map[*inode]bool{}
	for _, op := range fsys.log {
		_, seg := parseSegmentName(op.name)
		_, frozenWAL := parseFrozenWALName(op.name)
		switch {
		case op.kind == opRename && op.name == walName:
			seen["WAL rotation"] = true
		case op.kind == opCreate && seg:
			seen["segment write"], segInodes[op.ino] = true, true
		case op.kind == opSync && segInodes[op.ino]:
			seen["segment fsync"] = true
		case op.kind == opRename && op.to == manifestName:
			seen["manifest commit"] = true
		case op.kind == opRemove && frozenWAL:
			seen["frozen WAL deletion"] = true
		}
	}
	for _, step := range []string{"WAL rotation", "segment write", "segment fsync", "manifest commit", "frozen WAL deletion"} {
		if !seen[step] {
			t.Errorf("no %s in the log", step)
		}
	}
	walkCrashes(t, "^TestCrashInBackgroundFlush$", 1, cfg, fsys, keys, acks)
}

// TestSwappedSegmentRecordsDangle plays the disk swapping two live
// records' sealed bytes between their tags in a segment, the file CRC
// fixed up. Each seal is bound to its tag, so both records read as
// dangling — recomputed upstream, never served under the other tag.
func TestSwappedSegmentRecordsDangle(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	e := openTest(t, testConfig(t, p, dir))
	mustInsert(t, e, "a", "value-a") // equal sizes, so the records swap in place
	mustInsert(t, e, "b", "value-b")
	mustInsert(t, e, "c", "value-c")
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, segmentName(0))
	data := mustRead(t, path)
	sealedOf := func(key string) []byte {
		tag := tagOf(key)
		off := bytes.Index(data, tag[:])
		n := binary.BigEndian.Uint32(data[off+37:])
		return data[off+segRecHeader : off+segRecHeader+int(n)]
	}
	a, b := sealedOf("a"), sealedOf("b")
	if len(a) != len(b) {
		t.Fatalf("sealed records of %d and %d bytes", len(a), len(b))
	}
	tmp := bytes.Clone(a)
	copy(a, b)
	copy(b, tmp)
	binary.BigEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[segHeaderLen:len(data)-4], crcTable))
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	e = openTest(t, testConfig(t, p, dir))
	for _, key := range []string{"a", "b"} {
		if rec, status, err := get1(e, tagOf(key)); err != nil || status != storeengine.StatusDangling {
			t.Errorf("Get(%s) after the swap = %v %q, %v; want StatusDangling", key, status, rec.Blob, err)
		}
	}
	mustGet(t, e, "c", "value-c")
}

// TestFlushTelemetry pins the flush series: one
// speed_store_engine_flush_seconds observation per background flush,
// and speed_store_engine_flush_waits_total equal to Stats.FlushWaits.
func TestFlushTelemetry(t *testing.T) {
	fsys, g := newMemFS(crashDir), &gate{}
	fsys.hold = g.hold
	cfg := tieredConfig(t, testPlatform(), crashDir)
	e := openOn(t, cfg, fsys)
	reg := telemetry.NewRegistry()
	e.RegisterTelemetry(reg)
	held := g.arm(opSync)
	fillUntilFreeze(t, e, "a")
	<-held.arrived
	putsShortOfFull(t, e, "b")
	blocked := waitingPut(t, e, "filler")
	close(held.release)
	if err := <-blocked; err != nil {
		t.Fatalf("filling PUT: %v", err)
	}
	settle(t, e)
	snap := reg.Snapshot()
	st := e.Stats()
	hist, ok := snap.Histogram(`speed_store_engine_flush_seconds{engine="log"}`)
	if !ok || hist.Count != st.Flushes || st.Flushes != 2 {
		t.Errorf("flush histogram %+v (registered %v), want %d observations", hist, ok, st.Flushes)
	}
	if got := snap.Counter(`speed_store_engine_flush_waits_total{engine="log"}`); got != st.FlushWaits || got != 1 {
		t.Errorf("flush_waits_total = %d, Stats.FlushWaits = %d, want 1", got, st.FlushWaits)
	}
}

// TestWriterFailureReachesWaiters fails the background writer's first
// segment create: the frozen run stays, served, and the next waiter —
// here Checkpoint — reports the failure and retries, after which the
// run is a segment.
func TestWriterFailureReachesWaiters(t *testing.T) {
	fsys := &failingFS{memFS: newMemFS(crashDir)}
	cfg := tieredConfig(t, testPlatform(), crashDir)
	e := openOn(t, cfg, fsys)
	fsys.failSegments.Store(true)
	frozen := fillUntilFreeze(t, e, "k")
	err := e.Checkpoint()
	if err == nil || !errors.Is(err, errDiskFull) {
		t.Fatalf("Checkpoint with the writer failing = %v, want the writer's error", err)
	}
	mustGet(t, e, frozen[0], "v-"+frozen[0])
	fsys.failSegments.Store(false)
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after the disk recovered: %v", err)
	}
	if st := e.Stats(); st.Segments != 1 || e.frozen != nil {
		t.Fatalf("%d segments after the retry, want the frozen run's one", st.Segments)
	}
	for _, key := range frozen {
		mustGet(t, e, key, "v-"+key)
	}
}

var errDiskFull = errors.New("disk full")

// failingFS is a memFS whose segment creates fail while failSegments
// is set.
type failingFS struct {
	*memFS
	failSegments atomic.Bool
}

func (f *failingFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	if _, seg := parseSegmentName(filepath.Base(name)); seg && flag&os.O_CREATE != 0 && f.failSegments.Load() {
		return nil, errDiskFull
	}
	return f.memFS.OpenFile(name, flag, perm)
}
