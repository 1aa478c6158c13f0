package logengine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// crashDir is the directory the crash tests' engines keep their files
// in: a path on a memFS, never on the real file system.
const crashDir = "/crash"

// crashConfig is tieredConfig on crashDir under fsync=commit: every
// acknowledged mutation is promised to survive a power cut.
func crashConfig(t *testing.T, p *enclave.Platform) Config {
	cfg := tieredConfig(t, p, crashDir)
	cfg.Fsync = FsyncCommit
	cfg.Logf = nil
	return cfg
}

// openOn opens an engine on fsys, closed when the test ends.
func openOn(t *testing.T, cfg Config, fsys fileSystem) *Engine {
	t.Helper()
	e, err := open(cfg, fsys)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// settle waits until the background writer has committed any frozen
// run. A stream that settles after each PUT issues its file-system
// operations in one order on every run, so a crash point's name
// selects the same point in a rerun.
func settle(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.awaitFrozenLocked(); err != nil {
		t.Fatalf("background flush: %v", err)
	}
}

// ack is one acknowledged mutation of a crash-model stream: the span of
// file-system operations it issued, [start, end), and the value it left
// each key it touched at ("" for removed).
type ack struct {
	start, end int
	keys, vals []string
}

// leaves reports whether the mutation leaves key at val.
func (a *ack) leaves(key, val string) bool {
	for i, k := range a.keys {
		if k == key && a.vals[i] == val {
			return true
		}
	}
	return false
}

// TestCrashModel checks the log engine against what POSIX allows a
// power cut to leave on disk. Seeded TestEngineMatchesMapModel-style
// streams — inserts (single and in messages), duplicates, removes,
// replaces, gets, evictions, checkpoints, merges, process crashes and
// clean restarts — run under fsync=commit on a memFS that logs every
// file-system operation. After each logged operation a seeded legal
// post-crash disk is built (see crashWalker) and reopened. Reopen must
// succeed; every key must then be served bit-identical at its last
// acknowledged value, or absent if it was last removed, except that a
// key the interrupted mutation was changing may also show that
// mutation's value; nothing else may be served. A failing crash point
// is reported as a subtest whose name selects it alone:
//
//	go test ./internal/store/logengine -run '^TestCrashModel$/^seed=3$/^op=212$'
func TestCrashModel(t *testing.T) {
	t.Run("fresh-store", testCrashFreshStore)
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runCrashModel(t, seed, 300) })
	}
}

// testCrashFreshStore pins that a new store's first acknowledged PUT
// survives a power cut that keeps only what was fsynced: the WAL's
// directory entry must be durable before anything in it is promised.
func testCrashFreshStore(t *testing.T) {
	p := testPlatform()
	fsys := newMemFS(crashDir)
	e := openOn(t, crashConfig(t, p), fsys)
	mustInsert(t, e, "k", "v")
	w := &crashWalker{fs: fsys}
	w.advance(fsys.ops())
	mustGet(t, openOn(t, crashConfig(t, p), w.state(keepNone)), "k", "v")
}

func runCrashModel(t *testing.T, seed int64, steps int) {
	p := testPlatform()
	fsys := newMemFS(crashDir)
	cfg := crashConfig(t, p)
	e := openOn(t, cfg, fsys)
	rng := rand.New(rand.NewSource(seed))

	var (
		keys    []string              // every key ever used
		model   = map[string]string{} // live key -> value
		acks    []ack
		version int
		merges  int
		evicted int
	)
	newValue := func(key string) string {
		version++
		return fmt.Sprintf("%s-v%d-%s", key, version, strings.Repeat("x", rng.Intn(120)))
	}
	anyKey := func() string {
		if len(keys) == 0 || rng.Intn(8) == 0 {
			key := fmt.Sprintf("never-%d", rng.Int())
			keys = append(keys, key)
			return key
		}
		return keys[rng.Intn(len(keys))]
	}
	newKey := func() string {
		key := fmt.Sprintf("k%d", len(keys))
		keys = append(keys, key)
		return key
	}
	// insert stores one PUT message and records what it acknowledged.
	insert := func(step int, msgKeys ...string) {
		start := fsys.ops()
		items := make([]storeengine.Item, len(msgKeys))
		vals := make([]string, len(msgKeys))
		for i, key := range msgKeys {
			vals[i] = newValue(key)
			items[i] = storeengine.Item{Tag: tagOf(key), Record: recOf(vals[i])}
		}
		installed, err := e.Insert(items)
		if err != nil {
			t.Fatalf("step %d: Insert: %v", step, err)
		}
		// The flush a PUT starts counts as part of it: the PUT is in
		// flight until its run is committed.
		settle(t, e)
		a := ack{start: start, end: fsys.ops()}
		for i, key := range msgKeys {
			if _, live := model[key]; installed[i] == live {
				t.Fatalf("step %d: Insert(%s) installed=%v, model live=%v", step, key, installed[i], live)
			}
			if installed[i] {
				model[key] = vals[i]
				a.keys, a.vals = append(a.keys, key), append(a.vals, vals[i])
			}
		}
		if len(a.keys) > 0 {
			acks = append(acks, a)
		}
	}
	remove := func(step int, key string) {
		start := fsys.ops()
		_, found, err := e.Remove(tagOf(key))
		if err != nil {
			t.Fatalf("step %d: Remove(%s): %v", step, key, err)
		}
		if _, live := model[key]; found != live {
			t.Fatalf("step %d: Remove(%s) found=%v, model live=%v", step, key, found, live)
		}
		if found {
			delete(model, key)
			acks = append(acks, ack{start: start, end: fsys.ops(), keys: []string{key}, vals: []string{""}})
		}
	}
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 25:
			insert(step, newKey())
		case r < 30:
			insert(step, newKey(), newKey(), newKey())
		case r < 36: // a duplicate, or a re-insert of a removed key
			insert(step, anyKey())
		case r < 48:
			remove(step, anyKey())
		case r < 54: // replace: the only way a tag gets a second version
			key := anyKey()
			remove(step, key)
			insert(step, key)
		case r < 66: // a read persists nothing, so issues no file operation
			if _, err := e.Get([]mle.Tag{tagOf(anyKey()), tagOf(anyKey())}, math.MaxInt); err != nil {
				t.Fatalf("step %d: Get: %v", step, err)
			}
		case r < 72: // an eviction: the victim must be live
			tag, ok := e.Oldest()
			if !ok {
				if len(model) > 0 {
					t.Fatalf("step %d: Oldest found no victim, model holds %d keys", step, len(model))
				}
				break
			}
			key := slices.IndexFunc(keys, func(k string) bool { return tagOf(k) == tag })
			if key < 0 || model[keys[key]] == "" {
				t.Fatalf("step %d: Oldest named %x, which the model does not hold live", step, tag[:4])
			}
			remove(step, keys[key])
			evicted++
		case r < 84:
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("step %d: Checkpoint: %v", step, err)
			}
		case r < 94:
			before := e.Stats().Compactions
			if err := e.Compact(); err != nil {
				t.Fatalf("step %d: Compact: %v", step, err)
			}
			merges += int(e.Stats().Compactions - before)
		case r < 97: // a process crash: the kernel keeps every write
			e.Crash()
			e = openOn(t, cfg, fsys)
		default:
			if err := e.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			e = openOn(t, cfg, fsys)
		}
	}
	if merges == 0 || evicted == 0 {
		t.Fatalf("stream too tame: %d merges, %d evictions", merges, evicted)
	}

	walkCrashes(t, fmt.Sprintf("^TestCrashModel$/^seed=%d$", seed), seed, crashConfig(t, p), fsys, keys, acks)
}

// walkCrashes walks fsys's log once, checking a crash after every
// operation against the mutations acks acknowledged by then (see
// TestCrashModel). Only a failing crash point becomes a subtest, so the
// test's names do not depend on how many operations the engine issues;
// its reproduce line is -run run plus the subtest's name.
func walkCrashes(t *testing.T, run string, seed int64, check Config, fsys *memFS, keys []string, acks []ack) {
	const reportAtMost = 5
	failures := 0
	w := &crashWalker{fs: fsys}
	acked := make(map[string]string)
	next := 0 // acks[:next] had returned by the crash point
	for n := 1; n <= fsys.ops(); n++ {
		w.advance(n)
		for ; next < len(acks) && acks[next].end <= n; next++ {
			for i, key := range acks[next].keys {
				acked[key] = acks[next].vals[i]
			}
		}
		var inflight *ack
		if next < len(acks) && acks[next].start < n {
			inflight = &acks[next]
		}
		state := w.state(keepSeeded(rand.New(rand.NewSource(seed<<32 | int64(n)))))
		err := checkCrashState(check, state, keys, acked, inflight)
		if err == nil {
			continue
		}
		name := fmt.Sprintf("op=%d", n)
		if !t.Run(name, func(t *testing.T) {
			t.Fatalf("reproduce: go test ./internal/store/logengine -run '%s/^%s$'\n%v", run, name, err)
		}) {
			if failures++; failures == reportAtMost {
				t.Fatalf("stopped after %d failing crash points", failures)
			}
		}
	}
}

// checkCrashState reopens one post-crash disk and holds every key to
// the acknowledged state (see TestCrashModel).
func checkCrashState(cfg Config, state *memFS, keys []string, acked map[string]string, inflight *ack) error {
	e, err := open(cfg, state)
	if err != nil {
		return fmt.Errorf("reopen after the crash: %v", err)
	}
	defer e.Crash()
	tags := make([]mle.Tag, len(keys))
	for i, key := range keys {
		tags[i] = tagOf(key)
	}
	got, err := e.Get(tags, math.MaxInt)
	if err != nil {
		return fmt.Errorf("Get: %v", err)
	}
	live := 0
	for i, key := range keys {
		served := ""
		switch l := got[i]; l.Status {
		case storeengine.StatusHit:
			served = string(l.Record.Blob)
			if !sameRecord(l.Record, recOf(served)) {
				return fmt.Errorf("%s: served a record that is not bit-identical to the one written", key)
			}
			live++
		case storeengine.StatusMiss:
		default:
			return fmt.Errorf("%s: status %v", key, l.Status)
		}
		if want := acked[key]; served != want && (inflight == nil || !inflight.leaves(key, served)) {
			return fmt.Errorf("%s: served %q, but the acknowledged state is %q", key, served, want)
		}
	}
	if e.Len() != live {
		return fmt.Errorf("Len = %d, but %d keys are served", e.Len(), live)
	}
	return nil
}

// sameRecord compares what a PUT stored.
func sameRecord(a, b storeengine.Record) bool {
	return bytes.Equal(a.Challenge, b.Challenge) && bytes.Equal(a.WrappedKey, b.WrappedKey) &&
		bytes.Equal(a.Blob, b.Blob) && a.BlobSize == b.BlobSize && a.Owner == b.Owner
}

// TestRolledBackFileImages plays the untrusted disk with the
// directory's whole history at hand: it swaps an older image of one
// file — the WAL, a segment (under a live segment's name) or the
// manifest — into the latest directory and reopens. The images are the
// engine's own, so every seal verifies and the engine cannot tell old
// from new; it must either refuse to open or serve only records that
// were acknowledged at some point, bit-identical. Which of the two
// happens is pinned per file, as DESIGN.md states it: an older WAL or
// segment opens and may serve a stale state (a removed record back, a
// replaced one at its older value); an older manifest is refused when
// it names a segment a merge has since deleted, and otherwise opens on
// its older segment list, deleting the newer segments as orphans.
func TestRolledBackFileImages(t *testing.T) {
	p := testPlatform()
	fsys := newMemFS(crashDir)
	e := openOn(t, crashConfig(t, p), fsys)
	rng := rand.New(rand.NewSource(7))
	var (
		keys   []string
		live   = map[string]bool{}
		ever   = map[string]map[string]bool{} // key -> every value acknowledged for it
		points []int
	)
	insert := func(key string) {
		val := fmt.Sprintf("%s-%d-%s", key, rng.Int(), strings.Repeat("x", rng.Intn(120)))
		mustInsert(t, e, key, val)
		if ever[key] == nil {
			ever[key] = map[string]bool{}
			keys = append(keys, key)
		}
		ever[key][val], live[key] = true, true
	}
	remove := func(key string) {
		if _, found, err := e.Remove(tagOf(key)); err != nil || found != live[key] {
			t.Fatalf("Remove(%s) = %v, %v; want found=%v", key, found, err, live[key])
		}
		live[key] = false
	}
	for step := 0; step < 200; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(keys) == 0:
			insert(fmt.Sprint("k", len(keys)))
		case r < 7:
			remove(keys[rng.Intn(len(keys))])
		case r < 8: // replace
			key := keys[rng.Intn(len(keys))]
			remove(key)
			insert(key)
		case r < 9:
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		default:
			if err := e.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
		settle(t, e)
		points = append(points, fsys.ops())
	}
	e.Crash()
	latest := fsys.clone()

	check := crashConfig(t, p)
	refused := map[string]int{}
	opened := map[string]int{}
	try := func(what string, img *memFS) {
		eng, err := open(check, img)
		if err != nil {
			refused[what]++
			return
		}
		defer eng.Crash()
		opened[what]++
		tags := make([]mle.Tag, len(keys))
		for i, key := range keys {
			tags[i] = tagOf(key)
		}
		got, err := eng.Get(tags, math.MaxInt)
		if err != nil {
			t.Fatalf("%s: Get: %v", what, err)
		}
		for i, l := range got {
			switch {
			case l.Status == storeengine.StatusMiss:
			case l.Status != storeengine.StatusHit:
				t.Fatalf("%s: %s: status %v", what, keys[i], l.Status)
			case !ever[keys[i]][string(l.Record.Blob)] || !sameRecord(l.Record, recOf(string(l.Record.Blob))):
				t.Fatalf("%s: %s: served %q, never acknowledged", what, keys[i], l.Record.Blob)
			}
		}
	}
	for i := 0; i < len(points); i += 5 {
		old := fsys.image(points[i])
		for _, name := range []string{walName, manifestName} {
			if data := old.file(name); data != nil {
				img := latest.clone()
				img.put(name, data)
				try(name, img)
			}
		}
		for _, seg := range old.segmentFiles() {
			if latest.file(seg) == nil { // since merged away
				img := latest.clone()
				img.put(latest.segmentFiles()[0], old.file(seg))
				try("segment", img)
			}
		}
	}
	t.Logf("refused %v, opened %v", refused, opened)
	if refused[walName]+refused["segment"] != 0 || opened[walName] == 0 || opened["segment"] == 0 {
		t.Errorf("an older WAL or segment must open: refused %v, opened %v", refused, opened)
	}
	if refused[manifestName] == 0 || opened[manifestName] == 0 {
		t.Errorf("older manifests must be refused, or opened, by whether they name a merged-away segment: refused %d, opened %d",
			refused[manifestName], opened[manifestName])
	}
}
