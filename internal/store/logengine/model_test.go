package logengine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// TestEngineMatchesMapModel is the differential test: a seeded stream
// of inserts, duplicate inserts, removes, replaces, gets, contains,
// flushes, compactions and crash+reopens runs against the engine — with
// a memtable so small that the store is dozens of segments in several
// size classes — and against a plain map. Every answer must be equal,
// Len and ValueBytes must be equal after every step, and a removed tag
// must stay removed, in particular across merges whose run stops short
// of the oldest segment (the stream must produce some). At the end the
// eviction order drains the store (see Oldest).
func TestEngineMatchesMapModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModel(t, seed, 3000) })
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	p := testPlatform()
	dir := t.TempDir()
	open := func() *Engine {
		cfg := tieredConfig(t, p, dir)
		cfg.Logf = nil
		return openTest(t, cfg)
	}
	e := open()
	rng := rand.New(rand.NewSource(seed))

	model := make(map[string]string) // live key -> value
	var keys []string                // every key ever inserted
	version := 0
	newValue := func(key string) string {
		version++
		return fmt.Sprintf("%s-v%d-%s", key, version, strings.Repeat("x", rng.Intn(120)))
	}
	anyKey := func() string {
		if len(keys) == 0 || rng.Intn(8) == 0 {
			return fmt.Sprintf("never-%d", rng.Int())
		}
		return keys[rng.Intn(len(keys))]
	}
	insert := func(step int, key string) {
		val := newValue(key)
		_, live := model[key]
		ok, err := insert1(e, tagOf(key), recOf(val))
		if err != nil {
			t.Fatalf("step %d: Insert(%s): %v", step, key, err)
		}
		if ok == live {
			t.Fatalf("step %d: Insert(%s) installed=%v but the model has live=%v (first version wins)", step, key, ok, live)
		}
		if ok {
			model[key] = val
		}
	}
	remove := func(step int, key string) {
		want, live := model[key]
		rec, found, err := e.Remove(tagOf(key))
		if err != nil {
			t.Fatalf("step %d: Remove(%s): %v", step, key, err)
		}
		if found != live || (found && rec.BlobSize != int64(len(want))) {
			t.Fatalf("step %d: Remove(%s) = found %v size %d; model live=%v size %d", step, key, found, rec.BlobSize, live, len(want))
		}
		delete(model, key)
	}
	check := func(step int, key string) {
		want, live := model[key]
		rec, status, err := get1(e, tagOf(key))
		if err != nil {
			t.Fatalf("step %d: Get(%s): %v", step, key, err)
		}
		switch {
		case live && (status != storeengine.StatusHit || string(rec.Blob) != want):
			t.Fatalf("step %d: Get(%s) = %v %q, model has %q", step, key, status, rec.Blob, want)
		case !live && status != storeengine.StatusMiss:
			t.Fatalf("step %d: Get(%s) = %v %q, model has nothing (resurrected?)", step, key, status, rec.Blob)
		}
	}

	midListMerges, maxSegments := 0, 0
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 30: // insert a new key
			key := fmt.Sprintf("k%d", len(keys))
			keys = append(keys, key)
			insert(step, key)
		case r < 38: // insert a key that may be live (duplicate) or removed (re-insert)
			insert(step, anyKey())
		case r < 53:
			remove(step, anyKey())
		case r < 61: // replace: the only way a tag gets a second version
			key := anyKey()
			remove(step, key)
			insert(step, key)
		case r < 81:
			check(step, anyKey())
		case r < 91:
			key := anyKey()
			_, live := model[key]
			if ok, err := contains1(e, tagOf(key)); err != nil || ok != live {
				t.Fatalf("step %d: Contains(%s) = %v, %v; model live=%v", step, key, ok, err, live)
			}
		case r < 95:
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("step %d: Checkpoint: %v", step, err)
			}
		case r < 98:
			// The background writer splices segments in: look under mu.
			oldestSegment := func() *segment {
				e.mu.Lock()
				defer e.mu.Unlock()
				if len(e.segments) == 0 {
					return nil
				}
				return e.segments[0]
			}
			oldest := oldestSegment()
			merges := e.Stats().Compactions
			if err := e.Compact(); err != nil {
				t.Fatalf("step %d: Compact: %v", step, err)
			}
			mustBeAtFixedPoint(t, e)
			if e.Stats().Compactions > merges && oldestSegment() == oldest {
				midListMerges++
			}
		default:
			e.Crash()
			e = open()
		}
		maxSegments = max(maxSegments, e.Stats().Segments)
		want := int64(0)
		for _, v := range model {
			want += int64(len(v))
		}
		if e.Len() != len(model) || e.ValueBytes() != want {
			t.Fatalf("step %d: Len=%d ValueBytes=%d, model %d / %d", step, e.Len(), e.ValueBytes(), len(model), want)
		}
	}
	if midListMerges == 0 || maxSegments < 12 {
		t.Fatalf("stream too tame: %d merges above the oldest segment, at most %d segments", midListMerges, maxSegments)
	}

	// Final sweep, then the same again after one more merge and a clean
	// reopen: every key ever used answers as the model does. Then the
	// eviction order drains the store: Oldest names each live key once
	// (Remove takes it) and then reports the store empty, so the merged
	// view it walks is exactly the live set.
	sweep := func() {
		for _, key := range keys {
			check(steps, key)
		}
	}
	sweep()
	if err := e.Compact(); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	e = open()
	sweep()
	byTag := make(map[mle.Tag]string, len(model))
	for key := range model {
		byTag[tagOf(key)] = key
	}
	for n := len(model); n >= 0; n-- {
		tag, ok := e.Oldest()
		if !ok {
			break
		}
		key, live := byTag[tag]
		if !live {
			t.Fatalf("drain: Oldest named %x, which the model does not hold live (or named it twice)", tag[:4])
		}
		rec, found, err := e.Remove(tag)
		if err != nil || !found || rec.BlobSize != int64(len(model[key])) {
			t.Fatalf("drain: Remove(%s) = found %v size %d, %v; model size %d", key, found, rec.BlobSize, err, len(model[key]))
		}
		delete(byTag, tag)
	}
	if len(byTag) != 0 || e.Len() != 0 || e.ValueBytes() != 0 {
		t.Fatalf("drain: Oldest reported the store empty with %d model keys left, Len %d, ValueBytes %d", len(byTag), e.Len(), e.ValueBytes())
	}
}
