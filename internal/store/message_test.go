package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/wire"
)

// storeConfigs builds the same store in each of its two configurations:
// "memory", without a data directory (the volatile store), and "log",
// with one, its memtable and cache small enough that a few messages
// reach the segments.
var storeConfigs = []struct {
	name string
	cfg  func(t *testing.T, cfg Config) Config
}{
	{"memory", func(t *testing.T, cfg Config) Config { return cfg }},
	{EngineLog, func(t *testing.T, cfg Config) Config {
		cfg.Enclave = persistEnclave(t)
		cfg.DataDir = t.TempDir()
		cfg.MemtableBytes = 4 << 10
		cfg.CacheBytes = 2 << 10
		cfg.Fsync = "none"
		return cfg
	}},
}

// onEachConfig runs fn on a store built from cfg in each of the store's
// configurations (storeConfigs).
func onEachConfig(t *testing.T, cfg Config, fn func(t *testing.T, s *Store)) {
	for _, c := range storeConfigs {
		t.Run(c.name, func(t *testing.T) {
			s := testStore(t, c.cfg(t, cfg))
			defer s.Close()
			fn(t, s)
		})
	}
}

// TestMessagesMatchOneByOne is the model for the batch-first seam: a
// seeded stream of GET and PUT messages of 1–64 items — fresh and
// stored tags, duplicates within a message, Replace, applications that
// may not read or may not write, an application over its space quota —
// answered by one store a message at a time and by its twin one item at
// a time. Every item gets the same
// answer from both, and after every message both hold the same Stats
// and charge every application the same bytes. The last seed runs under
// global caps that bind mid-message, where the LRU victim depends on
// what was installed before it.
func TestMessagesMatchOneByOne(t *testing.T) {
	owners := []enclave.Measurement{ownerOf("reads and writes"), ownerOf("reads only"), ownerOf("no access")}
	for _, eng := range storeConfigs {
		for seed := int64(1); seed <= 4; seed++ {
			capped, messages := seed == 4, 300
			t.Run(fmt.Sprintf("%s/seed%d", eng.name, seed), func(t *testing.T) {
				acl := NewACL(0)
				acl.Grant(owners[0], PermAll)
				acl.Grant(owners[1], PermGet)
				open := func() *Store {
					cfg := Config{Auth: acl, MaxBytesPerApp: 6 << 10}
					if capped {
						// One application writes, so its quota binds only
						// within a PUT's size of what the caps leave it.
						cfg.MaxEntries, cfg.MaxBlobBytes, cfg.MaxBytesPerApp = 85, 6000, 6050
					}
					s := testStore(t, eng.cfg(t, cfg))
					t.Cleanup(s.Close)
					return s
				}
				batch, twin := open(), open()

				rng := rand.New(rand.NewSource(seed))
				var stored []mle.Tag
				fresh := 0
				pick := func(msg []mle.Tag) mle.Tag {
					switch r := rng.Intn(10); {
					case r < 2 && len(msg) > 0:
						return msg[rng.Intn(len(msg))] // a duplicate within the message
					case r < 7 && len(stored) > 0:
						return stored[rng.Intn(len(stored))]
					default:
						fresh++
						return tagOf(fmt.Sprintf("fresh-%d", fresh))
					}
				}
				for m := 0; m < messages; m++ {
					owner := owners[0]
					if r := rng.Intn(10); r >= 7 {
						owner = owners[r%3]
					}
					tags := make([]mle.Tag, 1+rng.Intn(64))
					for i := range tags {
						tags[i] = pick(tags[:i])
					}
					what := fmt.Sprintf("message %d", m)
					switch rng.Intn(2) {
					case 0:
						got, err := batch.WireGet(owner, tags, nil, math.MaxInt)
						var want []wire.GetResult
						for _, tag := range tags {
							r, werr := twin.WireGet(owner, []mle.Tag{tag}, nil, math.MaxInt)
							if werr != nil {
								t.Fatalf("%s: twin GET: %v", what, werr)
							}
							want = append(want, r...)
						}
						mustMatch(t, what+" GET", got, err, want)
					default:
						items := make([]wire.PutItem, len(tags))
						for i, tag := range tags {
							// The version is in the blob, so which PUT of a
							// tag won shows in every later GET.
							blob := fmt.Sprintf("m%d-i%d-%s", m, i, make([]byte, rng.Intn(120)))
							items[i] = wire.PutItem{Tag: tag, Sealed: sealedOf(blob), Replace: rng.Intn(12) == 0}
						}
						got, err := batch.WirePut(owner, items)
						var want []wire.PutResult
						for _, it := range items {
							r, werr := twin.WirePut(owner, []wire.PutItem{it})
							if werr != nil {
								t.Fatalf("%s: twin PUT: %v", what, werr)
							}
							want = append(want, r...)
						}
						mustMatch(t, what+" PUT", got, err, want)
						for i, r := range got {
							if r.OK {
								stored = append(stored, tags[i])
							}
						}
					}
					if b, w := batch.Stats(), twin.Stats(); b != w {
						t.Fatalf("%s: Stats diverged:\n message at a time %+v\n item at a time    %+v", what, b, w)
					}
					for _, o := range owners {
						if b, w := batch.quota.bytesOf(o), twin.quota.bytesOf(o); b != w {
							t.Fatalf("%s: bytesOf(%v) = %d a message at a time, %d an item at a time", what, o, b, w)
						}
					}
				}
				st := batch.Stats()
				if st.Hits == 0 || st.PutDupes == 0 || st.PutDenied == 0 || st.Unauthorized == 0 || (st.Evictions > 0) != capped {
					t.Errorf("the stream never reached some policy: %+v", st)
				}
			})
		}
	}
}

func mustMatch[T any](t *testing.T, what string, got []T, err error, want []T) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers a message at a time, %d an item at a time", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: item %d answered %+v a message at a time, %+v an item at a time", what, i, got[i], want[i])
		}
	}
}

// TestStoreEnclaveEntriesPerMessage pins the crossing rule of the engine
// seam: the store enters its enclave once per GET and PUT message
// whatever the item count; with a directory once more for a GET that
// has to unseal segment-resident records. A GET whose tags the
// memtable's key set and the segment filters all rule out is answered
// outside the enclave. A message none of whose items reaches
// the engine does not enter at all.
func TestStoreEnclaveEntriesPerMessage(t *testing.T) {
	owner, stranger := ownerOf("app"), ownerOf("stranger")
	tagsOf := func(prefix string, n int) []mle.Tag {
		tags := make([]mle.Tag, n)
		for i := range tags {
			tags[i] = tagOf(fmt.Sprintf("%s-%d", prefix, i))
		}
		return tags
	}
	itemsOf := func(tags []mle.Tag) []wire.PutItem {
		items := make([]wire.PutItem, len(tags))
		for i, tag := range tags {
			items[i] = wire.PutItem{Tag: tag, Sealed: sealedOf("v")}
		}
		return items
	}
	for _, eng := range storeConfigs {
		t.Run(eng.name, func(t *testing.T) {
			acl := NewACL(PermAll)
			acl.Grant(stranger, 0)
			s := testStore(t, eng.cfg(t, Config{Auth: acl}))
			defer s.Close()
			log := eng.name == EngineLog

			old, young := tagsOf("old", 64), tagsOf("young", 3)
			if _, err := s.WirePut(owner, itemsOf(old)); err != nil {
				t.Fatalf("WirePut: %v", err)
			}
			// With a directory "old" now lives in a segment, "young" (put
			// below) in the memtable; without one there is one tier.
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			replace := itemsOf(tagsOf("replace", 3))
			replace[1].Replace = true

			segmentGet := 1
			if log {
				segmentGet = 2
			}
			for _, c := range []struct {
				name string
				want int
				do   func() error
			}{
				{"PUT of 3", 1, func() error { _, err := s.WirePut(owner, itemsOf(young)); return err }},
				{"PUT of 3 duplicates", 1, func() error { _, err := s.WirePut(owner, itemsOf(young)); return err }},
				{"PUT of 1", 1, func() error { _, err := s.Put(owner, tagOf("single"), sealedOf("v")); return err }},
				{"PUT with a Replace item in the middle", 2, func() error { _, err := s.WirePut(owner, replace); return err }},
				{"PUT by a stranger", 0, func() error { _, err := s.WirePut(stranger, itemsOf(tagsOf("denied", 3))); return err }},
				{"GET of 1", 1, func() error { _, _, err := s.GetAs(owner, young[0]); return err }},
				{"GET of 3 in the newest tier", 1, func() error { _, err := s.WireGet(owner, young, nil, math.MaxInt); return err }},
				{"GET of 64 in the oldest tier", segmentGet, func() error { _, err := s.WireGet(owner, old, nil, math.MaxInt); return err }},
				{"GET across the tiers", segmentGet, func() error {
					_, err := s.WireGet(owner, append(tagsOf("old2", 0), old[0], young[0], tagOf("absent"), old[1]), nil, math.MaxInt)
					return err
				}},
				{"GET of 64 absent tags", 0, func() error { _, err := s.WireGet(owner, tagsOf("absent", 64), nil, math.MaxInt); return err }},
				{"GET of no tags (a ping)", 0, func() error { _, err := s.WireGet(owner, nil, nil, math.MaxInt); return err }},
				{"GET by a stranger", 0, func() error { _, err := s.WireGet(stranger, old, nil, math.MaxInt); return err }},
			} {
				if log && c.want == 2 && c.name[0] == 'P' {
					continue // with a directory, Remove enters the enclave too
				}
				before := s.Enclave().Metrics().ECalls
				if err := c.do(); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if got := int(s.Enclave().Metrics().ECalls - before); got != c.want {
					t.Errorf("%s entered the store enclave %d times, want %d", c.name, got, c.want)
				}
			}
		})
	}
}

// TestOverlappingPutMessagesInstallOnce races two PUT messages over the
// same tags, in opposite orders: every tag is installed by exactly one
// of them (run under -race).
func TestOverlappingPutMessagesInstallOnce(t *testing.T) {
	for _, eng := range storeConfigs {
		t.Run(eng.name, func(t *testing.T) {
			s := testStore(t, eng.cfg(t, Config{}))
			defer s.Close()
			owner := ownerOf("app")
			const n = 64
			msgs := [2][]wire.PutItem{}
			for i := 0; i < n; i++ {
				tag := tagOf(fmt.Sprintf("raced-%d", i))
				msgs[0] = append(msgs[0], wire.PutItem{Tag: tag, Sealed: sealedOf("first")})
				msgs[1] = append([]wire.PutItem{{Tag: tag, Sealed: sealedOf("other")}}, msgs[1]...)
			}
			var (
				wg   sync.WaitGroup
				outs [2][]bool
				errs [2]error
			)
			for w := range msgs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					outs[w], _, errs[w] = s.put(owner, msgs[w])
				}(w)
			}
			wg.Wait()
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("put: %v, %v", errs[0], errs[1])
			}
			for i := 0; i < n; i++ {
				if a, b := outs[0][i], outs[1][n-1-i]; a == b {
					t.Errorf("tag %d installed by both messages or neither (%v, %v)", i, a, b)
				}
			}
			if st := s.Stats(); st.Puts != n || st.PutDupes != n || st.Entries != n {
				t.Errorf("Stats = %+v, want %d puts, %d dupes, %d entries", st, n, n, n)
			}
			if got, want := s.quota.bytesOf(owner), int64(n*len("first")); got != want {
				t.Errorf("bytesOf = %d, want %d (one version per tag)", got, want)
			}
		})
	}
}

// TestObliviousMessages runs multi-tag messages through an oblivious
// store in both configurations: every tag of a message takes the
// all-entry scan, so entries in any tier are found, absent tags are
// not, and no lookup refreshes recency — the entry oblivious GETs
// touched last is still the first victim.
func TestObliviousMessages(t *testing.T) {
	const n = 24
	onEachConfig(t, Config{Oblivious: true, MaxEntries: n}, func(t *testing.T, s *Store) {
		owner := ownerOf("app")
		tags := make([]mle.Tag, n+1)
		for i := 0; i < n; i++ {
			tags[i] = tagOf(fmt.Sprintf("k%d", i))
			if _, err := s.Put(owner, tags[i], sealedOf(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if i == n/2 {
				if err := s.Checkpoint(); err != nil { // with a directory: half in a segment
					t.Fatalf("Checkpoint: %v", err)
				}
			}
		}
		tags[n] = tagOf("absent")

		got, err := s.WireGet(owner, tags, nil, math.MaxInt)
		if err != nil || len(got) != n+1 {
			t.Fatalf("WireGet = %d results, %v", len(got), err)
		}
		for i := 0; i < n; i++ {
			if !got[i].Found || string(got[i].Sealed.Blob) != fmt.Sprintf("v%d", i) {
				t.Errorf("k%d: found=%v blob=%q", i, got[i].Found, got[i].Sealed.Blob)
			}
		}
		if got[n].Found {
			t.Errorf("absent tag found")
		}
		if st := s.Stats(); st.Gets != n+1 || st.Hits != n {
			t.Errorf("Stats = gets %d hits %d, want %d/%d", st.Gets, st.Hits, n+1, n)
		}
		// The first victim, read again now, alone: the oldest Put, or
		// with a directory the segment's first record in tag order (the
		// eviction order takes the oldest segment first).
		first := 0
		if s.cfg.DataDir != "" {
			for i := 1; i <= n/2; i++ {
				if bytes.Compare(tags[i][:], tags[first][:]) < 0 {
					first = i
				}
			}
		}
		if _, found, _ := s.Get(tags[first]); !found {
			t.Fatalf("k%d missed", first)
		}
		// One more entry takes the store past MaxEntries: the victim is
		// still first, as if no lookup had touched anything.
		if _, err := s.Put(owner, tagOf("new"), sealedOf("new")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if st := s.Stats(); st.Evictions != 1 || st.Entries != n {
			t.Fatalf("Stats = %+v, want 1 eviction and %d entries", st, n)
		}
		tags[n] = tagOf("new")
		after, err := s.WireGet(owner, tags, nil, math.MaxInt)
		if err != nil {
			t.Fatalf("WireGet: %v", err)
		}
		for i, r := range after {
			if r.Found == (i == first) {
				t.Errorf("answer %d found=%v; want only k%d evicted: an oblivious lookup refreshed it", i, r.Found, first)
			}
		}
	})
}
