package logengine

import (
	"math"
	"testing"

	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// TestKeySetIsOnlyAHint desyncs the memtable's key set, which lives in
// untrusted memory, behind the engine's back: a live tag is dropped
// from it and a tag the enclave never stored is added. GET, HAS and PUT
// may then answer a miss (a recompute upstream) or pay an enclave entry
// they could have skipped, but no answer carries another tag's bytes,
// and a tag the enclave holds keeps its first version.
func TestKeySetIsOnlyAHint(t *testing.T) {
	for _, c := range []struct{ name, dir string }{{"volatile", ""}, {"durable", t.TempDir()}} {
		t.Run(c.name, func(t *testing.T) {
			e := openTest(t, testConfig(t, testPlatform(), c.dir))
			want := map[mle.Tag]string{} // what each tag may answer, "" = nothing
			put := func(key, val string) {
				mustInsert(t, e, key, val)
				want[tagOf(key)] = val
			}
			if c.dir != "" {
				put("old", "old v1")
				if err := e.Checkpoint(); err != nil { // "old" moves to a segment
					t.Fatalf("Checkpoint: %v", err)
				}
			}
			put("dropped", "dropped v1")
			put("kept", "kept v1")
			dropped, forged := tagOf("dropped"), tagOf("forged")
			want[forged] = ""
			e.mu.Lock()
			delete(e.keys, dropped)
			e.keys[forged] = true
			e.mu.Unlock()

			all := make([]mle.Tag, 0, len(want))
			for tag := range want {
				all = append(all, tag)
			}
			entries := func() int64 { return e.cfg.Enclave.Metrics().ECalls }
			get := func(what string, tags []mle.Tag, wantEntries int64) []storeengine.Lookup {
				t.Helper()
				before := entries()
				found, err := e.Get(tags, math.MaxInt)
				if err != nil || len(found) != len(tags) {
					t.Fatalf("%s: Get = %d answers, %v", what, len(found), err)
				}
				for i, l := range found {
					if l.Status == storeengine.StatusHit && string(l.Record.Blob) != want[tags[i]] {
						t.Errorf("%s: tag %d answered %q, want %q or a miss", what, i, l.Record.Blob, want[tags[i]])
					}
				}
				if n := entries() - before; wantEntries >= 0 && n != wantEntries {
					t.Errorf("%s entered the enclave %d times, want %d", what, n, wantEntries)
				}
				return found
			}

			// Alone, the dropped tag is ruled out: a miss, with no entry.
			if l := get("GET of the dropped tag", []mle.Tag{dropped}, 0); l[0].Status != storeengine.StatusMiss {
				t.Errorf("dropped tag: %v, want the hint's miss", l[0].Status)
			}
			// The forged tag pays one entry and still misses.
			if l := get("GET of the forged tag", []mle.Tag{forged}, 1); l[0].Status != storeengine.StatusMiss {
				t.Errorf("forged tag: %v, want a miss", l[0].Status)
			}
			// Beside a live tag the enclave answers, the dropped tag truly.
			for i, l := range get("GET of every tag", all, -1) {
				if all[i] == dropped && l.Status != storeengine.StatusHit {
					t.Errorf("dropped tag beside live ones: %v, want the enclave's hit", l.Status)
				}
			}
			present, err := e.Contains(all)
			if err != nil {
				t.Fatalf("Contains: %v", err)
			}
			for i, tag := range all {
				if tag == tagOf("kept") && !present[i] {
					t.Error("HAS lost a tag the key set still holds")
				}
			}

			// PUT asks the enclave: the dropped tag keeps its first version,
			// the forged tag is installed.
			if ok, err := insert1(e, dropped, recOf("dropped v2")); err != nil || ok {
				t.Errorf("PUT over the dropped tag = %v, %v; want a duplicate", ok, err)
			}
			if ok, err := insert1(e, forged, recOf("forged v1")); err != nil || !ok {
				t.Errorf("PUT of the forged tag = %v, %v; want installed", ok, err)
			}
			want[forged] = "forged v1"
			get("GET of every tag after the PUTs", all, -1)
			if c.dir != "" {
				// A flush moves the memtable to a segment, whose filter
				// takes over from the key set.
				if err := e.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				if l := get("GET of the dropped tag after a flush", []mle.Tag{dropped}, -1); l[0].Status != storeengine.StatusHit {
					t.Errorf("dropped tag after a flush: %v, want its first version", l[0].Status)
				}
			}
		})
	}
}
