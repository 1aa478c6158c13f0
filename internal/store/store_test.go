package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/wire"
)

func testEnclave(t *testing.T) *enclave.Enclave {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	e, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return e
}

func testStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Enclave == nil {
		cfg.Enclave = testEnclave(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func tagOf(s string) mle.Tag {
	return mle.Tag(sha256.Sum256([]byte(s)))
}

func ownerOf(s string) enclave.Measurement {
	return enclave.Measurement(sha256.Sum256([]byte(s)))
}

func sealedOf(s string) mle.Sealed {
	return mle.Sealed{
		Challenge:  []byte("challenge-16byte"),
		WrappedKey: []byte("wrappedkey16byte"),
		Blob:       []byte(s),
	}
}

func TestNewRequiresEnclave(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a nil enclave")
	}
}

func TestGetMissThenPutThenHit(t *testing.T) {
	s := testStore(t, Config{})
	tag := tagOf("t1")

	_, found, err := s.Get(tag)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if found {
		t.Fatal("Get on empty store reported found")
	}

	want := sealedOf("ciphertext blob")
	if _, err := s.Put(ownerOf("app"), tag, want); err != nil {
		t.Fatalf("Put: %v", err)
	}

	got, found, err := s.Get(tag)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !found {
		t.Fatal("Get after Put reported not found")
	}
	if !bytes.Equal(got.Blob, want.Blob) ||
		!bytes.Equal(got.Challenge, want.Challenge) ||
		!bytes.Equal(got.WrappedKey, want.WrappedKey) {
		t.Errorf("Get = %+v, want %+v", got, want)
	}

	st := s.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("Stats = %+v, want 2 gets, 1 hit, 1 put, 1 entry", st)
	}
}

func TestPutDuplicateKeepsFirst(t *testing.T) {
	s := testStore(t, Config{})
	tag := tagOf("t1")
	first := sealedOf("first version")
	second := sealedOf("second version")

	if _, err := s.Put(ownerOf("a"), tag, first); err != nil {
		t.Fatalf("Put first: %v", err)
	}
	if _, err := s.Put(ownerOf("b"), tag, second); err != nil {
		t.Fatalf("Put duplicate: %v", err)
	}
	got, found, err := s.Get(tag)
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	if !bytes.Equal(got.Blob, first.Blob) {
		t.Errorf("duplicate PUT overwrote the stored version")
	}
	st := s.Stats()
	if st.PutDupes != 1 || st.Entries != 1 {
		t.Errorf("Stats = %+v, want 1 dupe and 1 entry", st)
	}
	// The losing application's quota must have been credited back.
	if got := s.quota.bytesOf(ownerOf("b")); got != 0 {
		t.Errorf("loser bytesOf = %d, want 0", got)
	}
}

// putReplace is a one-item PUT message with Replace set.
func putReplace(s *Store, owner enclave.Measurement, tag mle.Tag, sealed mle.Sealed) (bool, error) {
	installed, rejected, err := s.put(owner, []wire.PutItem{{Tag: tag, Sealed: sealed, Replace: true}})
	if err != nil {
		return false, err
	}
	return installed[0], rejected[0]
}

func TestPutReplaceOverwrites(t *testing.T) {
	s := testStore(t, Config{})
	tag := tagOf("t")
	if _, err := s.Put(ownerOf("a"), tag, sealedOf("bad version")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	installed, err := putReplace(s, ownerOf("b"), tag, sealedOf("good version"))
	if err != nil {
		t.Fatalf("PutReplace: %v", err)
	}
	if !installed {
		t.Fatal("PutReplace did not install")
	}
	got, found, err := s.Get(tag)
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	if string(got.Blob) != "good version" {
		t.Errorf("Get blob = %q, want replaced version", got.Blob)
	}
	// Accounting: one entry, old owner credited, replacement not
	// counted as an eviction.
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if got := s.quota.bytesOf(ownerOf("a")); got != 0 {
		t.Errorf("old owner bytesOf = %d, want 0", got)
	}
	if got := s.Stats().Evictions; got != 0 {
		t.Errorf("Evictions = %d, want 0 (replacement is not an eviction)", got)
	}
}

// TestGetTokens: a GET whose token is the stored entry's r is answered
// Unchanged, with no triple, and counted; a token that differs (an
// older version's r, or a guess) and no token both get the full triple,
// on a volatile store and from a persistent store's segment alike.
func TestGetTokens(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"volatile", func(*testing.T) Config { return Config{} }},
		{"segment", func(t *testing.T) Config { return Config{DataDir: t.TempDir()} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testStore(t, tc.cfg(t))
			owner, tag := ownerOf("app"), tagOf("t")
			current := sealedOf("current version")
			if _, err := s.Put(owner, tag, current); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			older := bytes.Clone(current.Challenge)
			older[0] ^= 1
			got, err := s.WireGet(owner, []mle.Tag{tag, tag, tag, tagOf("absent")},
				[][]byte{current.Challenge, older, nil, current.Challenge}, math.MaxInt)
			if err != nil || len(got) != 4 {
				t.Fatalf("WireGet = %d results, %v", len(got), err)
			}
			if r := got[0]; !r.Found || !r.Unchanged || r.Sealed.Size() != 0 {
				t.Errorf("current token: %+v, want unchanged with no triple", r)
			}
			for i, what := range []string{"older token", "no token"} {
				if r := got[1+i]; !r.Found || r.Unchanged || !reflect.DeepEqual(r.Sealed, current) {
					t.Errorf("%s: %+v, want the full triple", what, r)
				}
			}
			if r := got[3]; r.Found || r.Unchanged {
				t.Errorf("absent tag with a token: %+v, want a miss", r)
			}
			if st := s.Stats(); st.Hits != 3 || st.Unchanged != 1 {
				t.Errorf("Hits = %d, Unchanged = %d; want 3 and 1", st.Hits, st.Unchanged)
			}
		})
	}
}

func TestPutReplaceOnMissingTagBehavesLikePut(t *testing.T) {
	s := testStore(t, Config{})
	installed, err := putReplace(s, ownerOf("a"), tagOf("fresh"), sealedOf("v"))
	if err != nil || !installed {
		t.Fatalf("PutReplace on missing = (%v, %v)", installed, err)
	}
}

// TestEntriesNeverExpire: a tag names its function (library version
// included) and input, so a stored result never goes stale and only the
// LRU caps remove it, however long it goes untouched. The store has no
// clock that could age it.
func TestEntriesNeverExpire(t *testing.T) {
	onEachConfig(t, Config{}, func(t *testing.T, s *Store) {
		if _, err := s.Put(ownerOf("app"), tagOf("t"), sealedOf("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if _, found, _ := s.Get(tagOf("t")); !found {
			t.Error("an untouched entry went missing")
		}
	})
}

// TestTTLObliviousModeNoRefresh: in oblivious mode a GET must not refresh
// the entry's recency (the update would leak which entry was read). The
// rule once showed through expiry; it now shows through LRU order: the
// older of two memtable entries, read again and again, is still the
// victim. (Segment records are never refreshed by any read.)
func TestTTLObliviousModeNoRefresh(t *testing.T) {
	onEachConfig(t, Config{Oblivious: true, MaxEntries: 2}, func(t *testing.T, s *Store) {
		owner := ownerOf("app")
		for _, k := range []string{"old", "young"} {
			if _, err := s.Put(owner, tagOf(k), sealedOf(k)); err != nil {
				t.Fatalf("Put %s: %v", k, err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, found, _ := s.Get(tagOf("old")); !found {
				t.Fatalf("old missed at read %d", i)
			}
		}
		if _, err := s.Put(owner, tagOf("new"), sealedOf("new")); err != nil {
			t.Fatalf("Put new: %v", err)
		}
		if _, found, _ := s.Get(tagOf("old")); found {
			t.Error("oblivious mode refreshed the entry: old outlived young")
		}
		if _, found, _ := s.Get(tagOf("young")); !found {
			t.Error("young was evicted in place of old")
		}
	})
}

// TestCiphertextStoredOutsideEnclave: in both of the store's
// configurations the enclave holds Section IV-B's dictionary, not the
// ciphertext. A PUT of a 1 MiB ciphertext charges one metadata entry —
// 96 bytes of tag key, pointer, counters and map bucket, plus challenge
// and wrapped key — and nothing else. With a data directory the record
// fills the memtable and is flushed to a segment; a GET that promotes
// it into the hot cache charges the same entry again, and nothing else:
// a segment read leaves no popularity behind.
func TestCiphertextStoredOutsideEnclave(t *testing.T) {
	meta := int64(96 + len("r") + len("k"))
	for _, c := range storeConfigs {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t, Config{Enclave: testEnclave(t)})
			cfg.CacheBytes = 2 << 20 // room to cache the whole record
			e := cfg.Enclave
			s := testStore(t, cfg)
			defer s.Close()
			allocated := func() int64 { return e.Metrics().AllocBytes }
			before := allocated()
			if _, err := s.Put(ownerOf("a"), tagOf("t"), mle.Sealed{
				Challenge:  []byte("r"),
				WrappedKey: []byte("k"),
				Blob:       make([]byte, 1<<20),
			}); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if got := allocated() - before; got != meta {
				t.Errorf("a 1 MiB PUT allocated %d enclave bytes, want %d (metadata only)", got, meta)
			}
			if cfg.DataDir == "" {
				if used := e.HeapUsed(); used != meta {
					t.Errorf("enclave heap = %d bytes after storing 1 MiB, want %d", used, meta)
				}
				return
			}
			if st := s.EngineStats(); st.Flushes != 1 || st.Segments != 1 {
				t.Fatalf("%d flushes, %d segments; want the record flushed to one segment", st.Flushes, st.Segments)
			}
			before = allocated()
			for i := 0; i < 2; i++ { // a segment read that promotes, then a cache hit
				if got, found, err := s.Get(tagOf("t")); err != nil || !found || len(got.Blob) != 1<<20 {
					t.Fatalf("Get %d: %d bytes, found %v, %v", i, len(got.Blob), found, err)
				}
			}
			if st := s.EngineStats(); st.CacheHits != 1 {
				t.Fatalf("CacheHits = %d, want 1: the record was not promoted", st.CacheHits)
			}
			if got, want := allocated()-before, meta; got != want {
				t.Errorf("promoting the 1 MiB record allocated %d enclave bytes, want %d (metadata only)", got, want)
			}
		})
	}
}

// The volatile store keeps each ciphertext outside the enclave: it must
// own its copy, so neither the caller's buffer after Put nor a buffer
// returned by Get aliases the stored bytes.
func TestCiphertextIsolatedFromCallerBuffers(t *testing.T) {
	s := testStore(t, Config{})
	sealed := sealedOf("original")
	if _, err := s.Put(ownerOf("a"), tagOf("t"), sealed); err != nil {
		t.Fatalf("Put: %v", err)
	}
	sealed.Blob[0] = 'X' // caller reuses its buffer after Put
	got, found, err := s.Get(tagOf("t"))
	if err != nil || !found || string(got.Blob) != "original" {
		t.Fatalf("Put did not copy: Get = %q found=%v err=%v", got.Blob, found, err)
	}
	got.Blob[0] = 'Y' // caller mutates the returned buffer
	if again, _, _ := s.Get(tagOf("t")); string(again.Blob) != "original" {
		t.Errorf("Get did not copy: got %q", again.Blob)
	}
}

func TestQuotaBytesRejected(t *testing.T) {
	s := testStore(t, Config{MaxBytesPerApp: 100})
	owner := ownerOf("app")
	if _, err := s.Put(owner, tagOf("a"), sealedOf(string(make([]byte, 80)))); err != nil {
		t.Fatalf("Put within quota: %v", err)
	}
	_, err := s.Put(owner, tagOf("b"), sealedOf(string(make([]byte, 80))))
	if !errors.Is(err, ErrQuota) {
		t.Errorf("Put beyond quota = %v, want ErrQuota", err)
	}
	// A different application is unaffected.
	if _, err := s.Put(ownerOf("other"), tagOf("c"), sealedOf(string(make([]byte, 80)))); err != nil {
		t.Errorf("other app Put: %v", err)
	}
	if got := s.Stats().PutDenied; got != 1 {
		t.Errorf("PutDenied = %d, want 1", got)
	}
}

// TestEvictionByMaxEntries: MaxEntries is a bound on the whole store,
// and each PUT past it evicts one entry. Without a directory the victim
// is the least recently used entry; with one it is the oldest segment's
// first live record, however recently it was read, and a memtable
// entry only once the segments hold none.
func TestEvictionByMaxEntries(t *testing.T) {
	onEachConfig(t, Config{MaxEntries: 8}, func(t *testing.T, s *Store) {
		owner := ownerOf("app")
		put := func(i int) {
			t.Helper()
			if _, err := s.Put(owner, tagOf(fmt.Sprintf("k%d", i)), sealedOf("blob")); err != nil {
				t.Fatalf("Put k%d: %v", i, err)
			}
		}
		// Fill to capacity, half of it in a segment when there is a
		// directory, then read the first half so the second half is the
		// cold end of the LRU order.
		for i := 0; i < 8; i++ {
			put(i)
			if i == 3 {
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
		}
		for i := 0; i < 4; i++ {
			if _, found, _ := s.Get(tagOf(fmt.Sprintf("k%d", i))); !found {
				t.Fatalf("warm Get k%d missed", i)
			}
		}
		// Each PUT now evicts exactly one entry: from the cold half, or
		// with a directory from the segment, the read k0..k3.
		for i := 8; i < 12; i++ {
			put(i)
		}
		if got := s.Len(); got != 8 {
			t.Fatalf("Len = %d, want 8", got)
		}
		victims, which := 4, "the cold k4..k7"
		if s.cfg.DataDir != "" {
			victims, which = 0, "the checkpointed k0..k3"
		}
		for i := 0; i < 12; i++ {
			_, found, _ := s.Get(tagOf(fmt.Sprintf("k%d", i)))
			if victim := i >= victims && i < victims+4; found == victim {
				t.Errorf("k%d: found=%v, want %s evicted and nothing else", i, found, which)
			}
		}
		if got := s.Stats().Evictions; got != 4 {
			t.Errorf("Evictions = %d, want 4", got)
		}
	})
}

func TestEvictionByMaxBlobBytes(t *testing.T) {
	s := testStore(t, Config{MaxBlobBytes: 250})
	owner := ownerOf("app")
	for i := 0; i < 3; i++ {
		if _, err := s.Put(owner, tagOf(fmt.Sprintf("t%d", i)), sealedOf(string(make([]byte, 100)))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// 300 bytes > 250: the oldest entry must have been evicted.
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if _, found, _ := s.Get(tagOf("t0")); found {
		t.Error("oldest entry survived byte-cap eviction")
	}
	if got := s.Stats().BlobBytes; got > 250 {
		t.Errorf("blob bytes = %d, want <= 250", got)
	}
}

// TestCappedLogStoreTakesManyInserts: a persistent store capped by
// MaxBlobBytes finds each eviction victim without reading the whole
// store, so thousands of inserts past the cap take seconds. The cap
// holds after every insert, and each insert past what fits evicts
// exactly one entry.
func TestCappedLogStoreTakesManyInserts(t *testing.T) {
	const (
		inserts = 30000
		blob    = 64
		fits    = 1000
	)
	s := testStore(t, Config{
		Enclave:         persistEnclave(t),
		DataDir:         t.TempDir(),
		MemtableBytes:   16 << 10,
		Fsync:           "none",
		CompactInterval: -1,
		MaxBlobBytes:    fits * blob,
	})
	defer s.Close()
	owner := ownerOf("app")
	start := time.Now()
	for i := 0; i < inserts; i++ {
		if _, err := s.Put(owner, tagOf(fmt.Sprint("k", i)), sealedOf(string(make([]byte, blob)))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if st := s.Stats(); st.BlobBytes > fits*blob {
			t.Fatalf("after insert %d the store holds %d blob bytes, over the %d-byte cap", i, st.BlobBytes, fits*blob)
		}
		if i%1000 == 999 {
			if err := s.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
		}
	}
	if st := s.Stats(); st.Evictions != inserts-fits || st.Entries != fits {
		t.Errorf("Evictions = %d, Entries = %d; want %d and %d", st.Evictions, st.Entries, inserts-fits, fits)
	}
	t.Logf("%d inserts in %v", inserts, time.Since(start))
}

// TestCapsHoldAtReopen: a persistent store reopened under a lower cap
// evicts down to it at once, oldest segment first, rather than at its
// next PUT: a store serving only hits would never get there.
func TestCapsHoldAtReopen(t *testing.T) {
	dir := t.TempDir()
	open := func(maxEntries int) *Store {
		return testStore(t, Config{Enclave: persistEnclave(t), DataDir: dir, Fsync: "none", MaxEntries: maxEntries})
	}
	s := open(0)
	for i := 0; i < 4; i++ {
		if _, err := s.Put(ownerOf("app"), tagOf(fmt.Sprint("k", i)), sealedOf("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	s.Close()
	s = open(2)
	defer s.Close()
	if st := s.Stats(); st.Entries != 2 || st.Evictions != 2 {
		t.Errorf("reopened under MaxEntries 2: %d entries, %d evictions; want 2 and 2", st.Entries, st.Evictions)
	}
}

func TestEvictionReleasesEnclaveMemory(t *testing.T) {
	e := testEnclave(t)
	s := testStore(t, Config{Enclave: e, MaxEntries: 1})
	owner := ownerOf("app")
	if _, err := s.Put(owner, tagOf("a"), sealedOf("x")); err != nil {
		t.Fatalf("Put a: %v", err)
	}
	used := e.HeapUsed()
	if _, err := s.Put(owner, tagOf("b"), sealedOf("y")); err != nil {
		t.Fatalf("Put b: %v", err)
	}
	if got := e.HeapUsed(); got != used {
		t.Errorf("heap after eviction = %d, want %d (steady state)", got, used)
	}
}

func TestClose(t *testing.T) {
	s := testStore(t, Config{})
	s.Close()
	if _, _, err := s.Get(tagOf("t")); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Put(ownerOf("a"), tagOf("t"), sealedOf("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentPutGet hammers one store from many goroutines, in each
// configuration (run under -race by make check): applications racing to
// store the same results keep one version each, mixed GET, PUT, Stats
// and Len calls never take the store past its entry cap, and racing PUTs
// never past an application's byte quota.
func TestConcurrentPutGet(t *testing.T) {
	const workers = 8
	t.Run("shared tags", func(t *testing.T) {
		const perWorker = 50
		onEachConfig(t, Config{}, func(t *testing.T, s *Store) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					owner := ownerOf(fmt.Sprintf("app%d", w))
					for i := 0; i < perWorker; i++ {
						tag := tagOf(fmt.Sprintf("shared-%d", i))
						if _, err := s.Put(owner, tag, sealedOf(fmt.Sprintf("blob-%d", i))); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						got, found, err := s.Get(tag)
						if err != nil || !found {
							t.Errorf("Get: found=%v err=%v", found, err)
							return
						}
						if want := fmt.Sprintf("blob-%d", i); string(got.Blob) != want {
							t.Errorf("Get blob = %q, want %q", got.Blob, want)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := s.Len(); got != perWorker {
				t.Errorf("Len = %d, want %d (duplicates deduplicated)", got, perWorker)
			}
		})
	})
	t.Run("mixed ops under a cap", func(t *testing.T) {
		const maxEntries = 64
		onEachConfig(t, Config{MaxEntries: maxEntries}, func(t *testing.T, s *Store) {
			owner := ownerOf("app")
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						key := fmt.Sprintf("k%d", (w*13+i)%96)
						switch i % 3 {
						case 0:
							if _, err := s.Put(owner, tagOf(key), sealedOf(key)); err != nil {
								t.Errorf("Put: %v", err)
							}
						case 1:
							if _, _, err := s.Get(tagOf(key)); err != nil {
								t.Errorf("Get: %v", err)
							}
						default:
							_ = s.Stats()
							_ = s.Len()
						}
					}
				}(w)
			}
			wg.Wait()
			if st := s.Stats(); st.Entries > maxEntries || st.Entries != s.Len() || st.Evictions == 0 {
				t.Errorf("Stats = %+v, Len = %d; want equal at rest, at most %d and some evictions", st, s.Len(), maxEntries)
			}
		})
	})
	t.Run("racing PUTs under a quota", func(t *testing.T) {
		const quota = 2000
		onEachConfig(t, Config{MaxBytesPerApp: quota}, func(t *testing.T, s *Store) {
			owner := ownerOf("app")
			var (
				wg       sync.WaitGroup
				accepted atomic.Int64
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						_, err := s.Put(owner, tagOf(fmt.Sprintf("w%d-k%d", w, i)), sealedOf("0123456789abcdef0123456789abcdef"))
						if err == nil {
							accepted.Add(1)
						} else if !errors.Is(err, ErrQuota) {
							t.Errorf("Put: %v", err)
						}
					}
				}(w)
			}
			wg.Wait()
			st := s.Stats()
			if st.BlobBytes > quota || s.quota.bytesOf(owner) != st.BlobBytes {
				t.Errorf("BlobBytes = %d, bytesOf = %d; want equal and within the %d-byte quota", st.BlobBytes, s.quota.bytesOf(owner), quota)
			}
			if st.Puts != accepted.Load() || st.Puts == 0 || st.PutDenied == 0 {
				t.Errorf("Stats puts = %d denied = %d, %d accepted; want puts = accepted and both non-zero", st.Puts, st.PutDenied, accepted.Load())
			}
		})
	})
}
