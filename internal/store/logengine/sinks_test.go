package logengine

import (
	"fmt"
	"math/rand"
	"testing"

	storeengine "speed/internal/store/engine"
)

// TestNoPlaintextInFileWrites is the disk sink of
// TestNoPlaintextAtSinks (internal/integration) seen from inside the
// engine: a seeded stream of canary records — a random challenge r and
// wrapped key [k] each — goes through inserts in messages, removes,
// evictions, flushes, merges, process crashes and clean reopens on a
// memFS, and then every byte any write put into any file, the WALs,
// segments and manifests since truncated or removed included, must
// hold no 16-byte window of any record's r or [k]. The blob is result
// ciphertext and the tag is what the store host indexes by, so both
// may reach the disk as they are.
func TestNoPlaintextInFileWrites(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runFileWrites(t, seed) })
	}
}

func runFileWrites(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fsys := newMemFS(crashDir)
	cfg := crashConfig(t, testPlatform())
	e := openOn(t, cfg, fsys)

	secrets := make(map[[16]byte]string) // window -> what it is
	var keys []string
	record := func(key string) storeengine.Record {
		rec := recOf(fmt.Sprintf("%s-%x", key, rng.Int63()))
		rec.Challenge, rec.WrappedKey = make([]byte, 16), make([]byte, 16)
		rng.Read(rec.Challenge)
		rng.Read(rec.WrappedKey)
		secrets[[16]byte(rec.Challenge)] = "challenge r of " + key
		secrets[[16]byte(rec.WrappedKey)] = "wrapped key [k] of " + key
		return rec
	}
	// The writes are checked last, also after a failure ends the run
	// early; at most ten findings are reported.
	defer func() {
		fsys.mu.Lock()
		defer fsys.mu.Unlock()
		names := make(map[*inode]string)
		writes, found := 0, 0
		for i, op := range fsys.log {
			switch op.kind {
			case opCreate:
				names[op.ino] = op.name
			case opRename:
				names[op.ino] = op.to
			case opWrite:
				writes++
				for j := 0; j+16 <= len(op.data); j++ {
					if what, ok := secrets[[16]byte(op.data[j:])]; ok && found < 10 {
						found++
						t.Errorf("file %s, write %d at offset %d: bytes %d..%d hold %s; rerun: go test ./internal/store/logengine -run 'TestNoPlaintextInFileWrites/seed=%d'",
							names[op.ino], i, op.off, j, j+16, what, seed)
					}
				}
			}
		}
		if writes == 0 {
			t.Error("the engine wrote nothing")
		}
	}()
	flushes, merges := int64(0), int64(0)
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			var items []storeengine.Item
			for n := 1 + rng.Intn(3); n > 0; n-- {
				key := fmt.Sprint("k", len(keys))
				keys = append(keys, key)
				items = append(items, storeengine.Item{Tag: tagOf(key), Record: record(key)})
			}
			if _, err := e.Insert(items); err != nil {
				t.Fatalf("step %d: Insert: %v", step, err)
			}
		case r < 62:
			if len(keys) > 0 {
				if _, _, err := e.Remove(tagOf(keys[rng.Intn(len(keys))])); err != nil {
					t.Fatalf("step %d: Remove: %v", step, err)
				}
			}
		case r < 72:
			if tag, ok := e.Oldest(); ok {
				if _, _, err := e.Remove(tag); err != nil {
					t.Fatalf("step %d: evict: %v", step, err)
				}
			}
		case r < 82:
			before := e.Stats().Flushes
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("step %d: Checkpoint: %v", step, err)
			}
			flushes += e.Stats().Flushes - before
		case r < 94:
			before := e.Stats().Compactions
			if err := e.Compact(); err != nil {
				t.Fatalf("step %d: Compact: %v", step, err)
			}
			merges += e.Stats().Compactions - before
		case r < 97:
			e.Crash()
			e = openOn(t, cfg, fsys)
		default:
			if err := e.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			e = openOn(t, cfg, fsys)
		}
	}
	if flushes == 0 || merges == 0 {
		t.Fatalf("stream too tame: %d checkpoint flushes, %d merges", flushes, merges)
	}
}
