package store

import (
	"fmt"
	"testing"
	"time"
)

// ttlClock is a manually advanced clock for TTL tests.
type ttlClock struct {
	now time.Time
}

func (c *ttlClock) Now() time.Time { return c.now }

// onEachConfig runs fn on a store built from cfg in each of the store's
// configurations (storeConfigs), on a clock the test advances by hand.
func onEachConfig(t *testing.T, cfg Config, fn func(t *testing.T, s *Store, clock *ttlClock)) {
	for _, c := range storeConfigs {
		t.Run(c.name, func(t *testing.T) {
			clock := &ttlClock{now: time.Unix(1000, 0)}
			cfg := cfg
			cfg.Now = clock.Now
			s := testStore(t, c.cfg(t, cfg))
			defer s.Close()
			fn(t, s, clock)
		})
	}
}

func TestTTLExpiresOnAccess(t *testing.T) {
	onEachConfig(t, Config{TTL: time.Minute}, func(t *testing.T, s *Store, clock *ttlClock) {
		owner := ownerOf("app")
		if _, err := s.Put(owner, tagOf("t"), sealedOf("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}

		// Within TTL: served.
		clock.now = clock.now.Add(30 * time.Second)
		if _, found, err := s.Get(tagOf("t")); err != nil || !found {
			t.Fatalf("Get within TTL = (%v, %v)", found, err)
		}

		// The hit refreshed the entry: another 45s later it is still live
		// (75s after Put, but only 45s after the last touch).
		clock.now = clock.now.Add(45 * time.Second)
		if _, found, _ := s.Get(tagOf("t")); !found {
			t.Fatal("refreshed entry expired early")
		}

		// Past TTL with no touches: reported as a miss and collected.
		clock.now = clock.now.Add(2 * time.Minute)
		if _, found, err := s.Get(tagOf("t")); err != nil || found {
			t.Fatalf("Get past TTL = (%v, %v), want miss", found, err)
		}
		if s.Len() != 0 {
			t.Errorf("expired entry still resident, Len = %d", s.Len())
		}
		if got := s.Stats().Expired; got != 1 {
			t.Errorf("Expired = %d, want 1", got)
		}
		// Quota accounting returned.
		if got := s.AppBytes(owner); got != 0 {
			t.Errorf("AppBytes after expiry = %d, want 0", got)
		}
	})
}

// TestTTLExpireNowSweep: the sweep removes exactly the entries past
// their TTL — with a directory from the segments as well as the
// memtable — counts each as expired and returns its quota bytes.
func TestTTLExpireNowSweep(t *testing.T) {
	onEachConfig(t, Config{TTL: time.Minute}, func(t *testing.T, s *Store, clock *ttlClock) {
		owner := ownerOf("app")
		const n = 32
		for i := 0; i < n; i++ {
			if _, err := s.Put(owner, tagOf(fmt.Sprintf("k%d", i)), sealedOf("v")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if i == n/2 {
				if err := s.Checkpoint(); err != nil { // with a directory: half in a segment
					t.Fatalf("Checkpoint: %v", err)
				}
			}
		}
		clock.now = clock.now.Add(30 * time.Second)
		// Refresh one entry from each half.
		fresh := []string{"k0", fmt.Sprintf("k%d", n-1)}
		for _, k := range fresh {
			if _, found, _ := s.Get(tagOf(k)); !found {
				t.Fatalf("%s missing before the sweep", k)
			}
		}
		clock.now = clock.now.Add(45 * time.Second)

		if got := s.ExpireNow(); got != n-2 {
			t.Errorf("ExpireNow = %d, want %d", got, n-2)
		}
		if s.Len() != 2 {
			t.Errorf("Len = %d, want 2", s.Len())
		}
		if got := s.Stats().Expired; got != n-2 {
			t.Errorf("Stats.Expired = %d, want %d", got, n-2)
		}
		if got := s.AppBytes(owner); got != 2 {
			t.Errorf("AppBytes = %d, want the 2 bytes of the refreshed entries", got)
		}
		for _, k := range fresh {
			if _, found, _ := s.Get(tagOf(k)); !found {
				t.Errorf("refreshed entry %s was swept", k)
			}
		}
	})
}

func TestTTLDisabledByDefault(t *testing.T) {
	onEachConfig(t, Config{}, func(t *testing.T, s *Store, clock *ttlClock) {
		if _, err := s.Put(ownerOf("app"), tagOf("t"), sealedOf("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		clock.now = clock.now.Add(1000 * time.Hour)
		if _, found, _ := s.Get(tagOf("t")); !found {
			t.Error("entry expired without a TTL configured")
		}
		if n := s.ExpireNow(); n != 0 {
			t.Errorf("ExpireNow without TTL = %d, want 0", n)
		}
	})
}

func TestTTLObliviousModeNoRefresh(t *testing.T) {
	onEachConfig(t, Config{TTL: time.Minute, Oblivious: true}, func(t *testing.T, s *Store, clock *ttlClock) {
		if _, err := s.Put(ownerOf("app"), tagOf("t"), sealedOf("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		// Touch repeatedly; oblivious mode must not refresh lastTouch
		// (freshness updates leak the accessed entry).
		for i := 0; i < 3; i++ {
			clock.now = clock.now.Add(25 * time.Second)
			if _, found, _ := s.Get(tagOf("t")); !found && i < 2 {
				t.Fatalf("entry expired early at touch %d", i)
			}
		}
		// 75s after Put: past TTL despite the touches.
		if _, found, _ := s.Get(tagOf("t")); found {
			t.Error("oblivious mode refreshed entry freshness")
		}
	})
}
