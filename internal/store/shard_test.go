package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	tests := []struct {
		shards, want int
	}{
		{0, defaultShards},
		{1, 1},
		{2, 2},
		{3, 4},
		{7, 8},
		{8, 8},
		{9, 16},
		{200, 256},
		{10_000, maxShards},
	}
	for _, tt := range tests {
		s := testStore(t, Config{Shards: tt.shards})
		if got := len(s.memShards()); got != tt.want {
			t.Errorf("Shards=%d: %d shards, want %d", tt.shards, got, tt.want)
		}
		s.Close()
	}
}

func TestShardedStatsConsistent(t *testing.T) {
	// Entries land across many shards; the Stats snapshot must agree
	// with per-operation expectations regardless of shard placement.
	s := testStore(t, Config{Shards: 16})
	defer s.Close()
	owner := ownerOf("app")

	const n = 200
	for i := 0; i < n; i++ {
		tag := tagOf(fmt.Sprintf("k%d", i))
		if _, err := s.Put(owner, tag, sealedOf(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	hits := 0
	for i := 0; i < n; i++ {
		_, found, err := s.Get(tagOf(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if found {
			hits++
		}
	}
	if hits != n {
		t.Fatalf("hits = %d, want %d", hits, n)
	}
	st := s.Stats()
	if st.Puts != n || st.Gets != n || st.Hits != n {
		t.Errorf("Stats = puts %d gets %d hits %d, want %d each", st.Puts, st.Gets, st.Hits, n)
	}
	if st.Entries != n {
		t.Errorf("Stats.Entries = %d, want %d", st.Entries, n)
	}
	if s.Len() != n {
		t.Errorf("Len = %d, want %d", s.Len(), n)
	}

	// Every shard's gauge must sum to the entry count.
	total := 0
	spread := 0
	for _, sh := range s.memShards() {
		sh.mu.Lock()
		total += len(sh.dict)
		if len(sh.dict) > 0 {
			spread++
		}
		sh.mu.Unlock()
	}
	if total != n {
		t.Errorf("sum of shard sizes = %d, want %d", total, n)
	}
	if spread < 2 {
		t.Errorf("entries landed in %d shard(s); hashing is not spreading", spread)
	}
}

func TestShardedEvictionIsGloballyLRU(t *testing.T) {
	// MaxEntries is a global bound: with entries spread over shards, the
	// evicted entries must be the globally least-recently-used ones, not
	// whichever entry is cold within an arbitrary shard.
	s := testStore(t, Config{Shards: 8, MaxEntries: 8})
	defer s.Close()
	owner := ownerOf("app")

	// Fill to capacity, then touch the first half so the second half is
	// the cold end of the global LRU order.
	for i := 0; i < 8; i++ {
		if _, err := s.Put(owner, tagOf(fmt.Sprintf("k%d", i)), sealedOf("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, found, _ := s.Get(tagOf(fmt.Sprintf("k%d", i))); !found {
			t.Fatalf("warm Get k%d missed", i)
		}
	}
	// Each insert now evicts exactly one entry, which must come from the
	// cold half.
	for i := 8; i < 12; i++ {
		if _, err := s.Put(owner, tagOf(fmt.Sprintf("k%d", i)), sealedOf("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	for i := 0; i < 4; i++ {
		if _, found, _ := s.Get(tagOf(fmt.Sprintf("k%d", i))); !found {
			t.Errorf("recently-touched k%d was evicted before cold entries", i)
		}
	}
	cold := 0
	for i := 4; i < 8; i++ {
		if _, found, _ := s.Get(tagOf(fmt.Sprintf("k%d", i))); found {
			cold++
		}
	}
	if cold != 0 {
		t.Errorf("%d cold entries survived; eviction is not globally LRU", cold)
	}
	if st := s.Stats(); st.Evictions != 4 {
		t.Errorf("Evictions = %d, want 4", st.Evictions)
	}
}

func TestShardedTTLExpiry(t *testing.T) {
	s := testStore(t, Config{Shards: 8, TTL: 10 * time.Millisecond})
	defer s.Close()
	owner := ownerOf("app")
	const n = 32
	for i := 0; i < n; i++ {
		if _, err := s.Put(owner, tagOf(fmt.Sprintf("k%d", i)), sealedOf("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	time.Sleep(25 * time.Millisecond)
	if removed := s.ExpireNow(); removed != n {
		t.Errorf("ExpireNow = %d, want %d", removed, n)
	}
	if got := s.Len(); got != 0 {
		t.Errorf("Len after expiry = %d, want 0", got)
	}
	if st := s.Stats(); st.Expired != n {
		t.Errorf("Stats.Expired = %d, want %d", st.Expired, n)
	}
}

func TestShardedQuotaUnderConcurrency(t *testing.T) {
	// A per-app byte quota is global accounting; concurrent PUTs across
	// shards must never overshoot it.
	s := testStore(t, Config{
		Shards: 16,
		Quota:  QuotaConfig{MaxBytesPerApp: 2_000},
	})
	defer s.Close()
	owner := ownerOf("app")

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, err := s.Put(owner, tagOf(fmt.Sprintf("w%d-k%d", w, i)), sealedOf("0123456789abcdef0123456789abcdef"))
				if err == nil {
					mu.Lock()
					accepted++
					mu.Unlock()
				} else if !errors.Is(err, ErrQuota) {
					t.Errorf("Put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.BlobBytes > 2_000 {
		t.Errorf("BlobBytes = %d, exceeds 2000-byte quota", st.BlobBytes)
	}
	if accepted == 0 || st.PutDenied == 0 {
		t.Errorf("accepted = %d, denied = %d; want both non-zero", accepted, st.PutDenied)
	}
	if int(st.Puts) != accepted {
		t.Errorf("Stats.Puts = %d, want %d", st.Puts, accepted)
	}
}

func TestShardedConcurrentMixedOps(t *testing.T) {
	// Hammer one sharded store with concurrent GET/PUT/Stats/Len from
	// many goroutines; run under -race via `make check`.
	s := testStore(t, Config{Shards: 4, MaxEntries: 64})
	defer s.Close()
	owner := ownerOf("app")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
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
	if got := s.Len(); got > 64 {
		t.Errorf("Len = %d, exceeds MaxEntries 64", got)
	}
	st := s.Stats()
	if st.Entries != s.Len() {
		t.Errorf("Stats.Entries = %d, Len = %d; want equal at rest", st.Entries, s.Len())
	}
}

func TestObliviousLookupsAcrossShards(t *testing.T) {
	// Oblivious mode must still find entries in any shard (the scan
	// covers all shards) and keep counters on the home shard.
	s := testStore(t, Config{Shards: 8, Oblivious: true})
	defer s.Close()
	owner := ownerOf("app")
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := s.Put(owner, tagOf(fmt.Sprintf("k%d", i)), sealedOf(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		sealed, found, err := s.Get(tagOf(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !found {
			t.Fatalf("oblivious Get k%d missed", i)
		}
		if string(sealed.Blob) != fmt.Sprintf("v%d", i) {
			t.Fatalf("oblivious Get k%d returned wrong blob", i)
		}
	}
	if _, found, _ := s.Get(tagOf("absent")); found {
		t.Error("oblivious Get found an absent tag")
	}
	st := s.Stats()
	if st.Gets != n+1 || st.Hits != n {
		t.Errorf("Stats = gets %d hits %d, want %d/%d", st.Gets, st.Hits, n+1, n)
	}
}
