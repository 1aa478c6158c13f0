package store

import (
	"fmt"
	"strings"
	"testing"

	"speed/internal/enclave"
	"speed/internal/store/logengine/logenginetest"
)

// persistEnclave creates a store enclave on a deterministic platform,
// so a second call (a simulated restart) derives the same sealing key.
func persistEnclave(t *testing.T) *enclave.Enclave {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{PlatformSeed: []byte("store-engine-test-seed")})
	e, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return e
}

// TestEngineSelection is the DataDir/Engine validation table: a data
// directory, with Engine "" or "log", makes the store persistent (a
// checkpoint writes a segment); none makes it volatile; every other
// combination is refused.
func TestEngineSelection(t *testing.T) {
	dir := func(t *testing.T) string { return t.TempDir() }
	none := func(*testing.T) string { return "" }
	for _, c := range []struct {
		name    string
		engine  string
		dataDir func(t *testing.T) string
		fsync   string
		want    int // segments after one Put and a Checkpoint; -1: New refuses
	}{
		{"default is memory", "", none, "", 0},
		{"data dir implies log", "", dir, "", 1},
		{"log with data dir", EngineLog, dir, "", 1},
		{"log requires data dir", EngineLog, none, "", -1},
		{"memory is no engine name", "memory", none, "", -1},
		{"unknown engine rejected", "flat-earth", dir, "", -1},
		{"bad fsync policy rejected", "", dir, "eventually", -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Enclave: persistEnclave(t), Engine: c.engine, DataDir: c.dataDir(t), Fsync: c.fsync})
			if c.want < 0 {
				if err == nil {
					s.Close()
					t.Fatal("New accepted the configuration")
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer s.Close()
			if _, err := s.Put(ownerOf("app"), tagOf("k"), sealedOf("v")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if got := s.EngineStats().Segments; got != c.want {
				t.Errorf("%d segments after a checkpoint, want %d", got, c.want)
			}
		})
	}
}

// TestLogEnginePersistenceRoundTrip drives persistence through the
// Store's public API: Put, clean Close, reopen on a fresh platform with
// the same seed (a machine restart), Get.
func TestLogEnginePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Config{Enclave: persistEnclave(t), DataDir: dir})
	tags := []string{"alpha", "beta", "gamma"}
	for _, k := range tags {
		if _, err := s.Put(ownerOf("app"), tagOf(k), sealedOf("blob-"+k)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
	}
	// Replacement must persist too: the reopened store serves the new
	// version, not the original.
	if _, err := putReplace(s, ownerOf("app"), tagOf("beta"), sealedOf("blob-beta-v2")); err != nil {
		t.Fatalf("PutReplace: %v", err)
	}
	s.Close()

	s2 := testStore(t, Config{Enclave: persistEnclave(t), DataDir: dir})
	defer s2.Close()
	if got := s2.Len(); got != 3 {
		t.Fatalf("reopened Len = %d, want 3", got)
	}
	for _, k := range []string{"alpha", "gamma"} {
		got, found, err := s2.Get(tagOf(k))
		if err != nil || !found {
			t.Fatalf("Get(%s) after reopen: found=%v err=%v", k, found, err)
		}
		if string(got.Blob) != "blob-"+k {
			t.Errorf("Get(%s) blob = %q, want %q", k, got.Blob, "blob-"+k)
		}
	}
	if got, found, _ := s2.Get(tagOf("beta")); !found || string(got.Blob) != "blob-beta-v2" {
		t.Errorf("replaced entry after restart = %q found=%v, want the v2 blob", got.Blob, found)
	}
}

// TestCrashRecoveryThroughStore is the API-level kill -9 test: every
// acknowledged Put must be served, byte for byte, after Crash + reopen.
// The working set is six times the in-memory budget (memtable +
// cache), so the crash catches records in flushed segments and in the
// WAL, and the read-back cannot be served from memory alone.
func TestCrashRecoveryThroughStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: "commit", MemtableBytes: 8 << 10, CacheBytes: 8 << 10}
	cfg.Enclave = persistEnclave(t)
	s := testStore(t, cfg)
	const n = 96
	blobOf := func(i int) string { return fmt.Sprintf("%04d%s", i, strings.Repeat("x", 1020)) }
	for i := 0; i < n; i++ {
		if _, err := s.Put(ownerOf("app"), tagOf(fmt.Sprintf("k%d", i)), sealedOf(blobOf(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if es := s.EngineStats(); es.Flushes == 0 || es.WALBytes == 0 {
		t.Fatalf("crash point has flushes=%d wal=%dB; want records in segments and in the WAL", es.Flushes, es.WALBytes)
	}
	s.Crash()
	if !s.Closed() {
		t.Error("Crash did not mark the store closed")
	}

	cfg.Enclave = persistEnclave(t)
	s2 := testStore(t, cfg)
	defer s2.Close()
	if s2.EngineStats().Replayed == 0 {
		t.Error("recovery replayed nothing; the crash path was not exercised")
	}
	for i := 0; i < n; i++ {
		got, found, err := s2.Get(tagOf(fmt.Sprintf("k%d", i)))
		if err != nil || !found {
			t.Fatalf("acknowledged put %d lost after crash: found=%v err=%v", i, found, err)
		}
		if string(got.Blob) != blobOf(i) {
			t.Fatalf("put %d came back with the wrong bytes after crash", i)
		}
	}
}

// TestMissingBlobTreatedAsMiss: when the untrusted disk hands back a
// stored value that fails authentication, the lookup is a miss and
// the dangling entry is dropped, so the application recomputes and
// the next Put installs a fresh version.
func TestMissingBlobTreatedAsMiss(t *testing.T) {
	dir := t.TempDir()
	s := testStore(t, Config{Enclave: persistEnclave(t), DataDir: dir})
	for _, k := range []string{"good", "bad"} {
		if _, err := s.Put(ownerOf("a"), tagOf(k), sealedOf("blob-"+k)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	s.Close() // flushes both records into one segment
	logenginetest.TamperSegmentRecord(t, dir, tagOf("bad"))

	s2 := testStore(t, Config{Enclave: persistEnclave(t), DataDir: dir})
	defer s2.Close()
	if _, found, err := s2.Get(tagOf("bad")); err != nil || found {
		t.Fatalf("Get(tampered) = found %v, err %v; want a clean miss", found, err)
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d, want 1 after dangling entry cleanup", s2.Len())
	}
	if got, found, _ := s2.Get(tagOf("good")); !found || string(got.Blob) != "blob-good" {
		t.Errorf("neighbour of the tampered record = %q found=%v", got.Blob, found)
	}
	if installed, err := s2.Put(ownerOf("a"), tagOf("bad"), sealedOf("blob-bad-v2")); err != nil || !installed {
		t.Fatalf("Put after cleanup = (%v, %v), want a fresh install", installed, err)
	}
	if got, found, _ := s2.Get(tagOf("bad")); !found || string(got.Blob) != "blob-bad-v2" {
		t.Errorf("replacement = %q found=%v", got.Blob, found)
	}
}
