package cluster

import (
	"fmt"
	"testing"
	"time"

	"speed/internal/mle"
	"speed/internal/wire"
)

// TestSyncerPopularResults: a hot result computed on a member that is
// not among its tag's ring owners (e.g. written while the owners were
// down, or before the node list grew) is pulled over the wire and
// placed on the owners, so routed GETs start hitting it.
func TestSyncerPopularResults(t *testing.T) {
	env := newTestCluster(t, 3, Config{Replicas: 2, ProbeInterval: time.Hour})

	// Find a tag with a non-owner member to act as the donor.
	var tag = ctag("sync-seed")
	var owners []int
	donor := -1
	for i := 0; donor < 0; i++ {
		tag = ctag(fmt.Sprintf("sync-%d", i))
		owners = env.client.ring.owners(tag, 2)
		for ni := range env.nodes {
			if ni != owners[0] && ni != owners[1] {
				donor = ni
			}
		}
	}
	sealed := csealed("sync")
	if _, err := env.nodes[donor].st.Put(env.app.Measurement(), tag, sealed); err != nil {
		t.Fatalf("donor put: %v", err)
	}
	// Heat it up past the popularity threshold.
	for i := 0; i < 3; i++ {
		if _, found, err := env.nodes[donor].st.Get(tag); err != nil || !found {
			t.Fatalf("donor get: (found=%v, %v)", found, err)
		}
	}

	s := NewSyncer(env.client, SyncConfig{MinHits: 2, Logf: t.Logf})
	copied, err := s.SyncOnce()
	if err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	if copied != 1 {
		t.Errorf("SyncOnce copied %d entries, want 1", copied)
	}
	for _, ni := range owners {
		if !env.hasTag(ni, tag) {
			t.Errorf("hot result missing from ring owner %d after sync", ni)
		}
	}
	// A routed Get now hits without touching the donor.
	if _, found, err := getOne(env.client, tag); err != nil || !found {
		t.Errorf("routed Get after sync = (found=%v, %v), want hit", found, err)
	}

	// A second pass re-pulls the same entry but must not re-place it.
	copied, err = s.SyncOnce()
	if err != nil {
		t.Fatalf("second SyncOnce: %v", err)
	}
	if copied != 0 {
		t.Errorf("second SyncOnce copied %d entries, want 0", copied)
	}
	if s.Copied() != 1 {
		t.Errorf("Copied() = %d, want 1", s.Copied())
	}
}

// TestSyncerSkipsPresentEntries: an entry that is hot on a non-owner
// but already stored at its primary (chunked dedup's common case —
// content-addressed chunks shared across results land everywhere) is
// probed via HAS_BATCH and never shipped.
func TestSyncerSkipsPresentEntries(t *testing.T) {
	env := newTestCluster(t, 2, Config{Replicas: 1, ProbeInterval: time.Hour})
	tag := ctag("already-there")
	primary := env.client.ring.owners(tag, 1)[0]
	donor := 1 - primary
	sealed := csealed("shared chunk")
	for _, ni := range []int{primary, donor} {
		if _, err := env.nodes[ni].st.Put(env.app.Measurement(), tag, sealed); err != nil {
			t.Fatalf("put on %d: %v", ni, err)
		}
	}
	// Hot on the donor only; the primary never served it.
	for i := 0; i < 3; i++ {
		if _, found, err := env.nodes[donor].st.Get(tag); err != nil || !found {
			t.Fatalf("donor get: (found=%v, %v)", found, err)
		}
	}

	s := NewSyncer(env.client, SyncConfig{MinHits: 2, Logf: t.Logf})
	copied, err := s.SyncOnce()
	if err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	if copied != 0 {
		t.Errorf("SyncOnce copied %d entries, want 0 (primary already holds it)", copied)
	}
	if s.Skipped() != 1 {
		t.Errorf("Skipped() = %d, want 1", s.Skipped())
	}
}

// TestClientHasBatch: Has routes existence probes to each tag's primary.
func TestClientHasBatch(t *testing.T) {
	env := newTestCluster(t, 3, Config{Replicas: 1, ProbeInterval: time.Hour})
	have := ctag("present-tag")
	primary := env.client.ring.owners(have, 1)[0]
	if _, err := env.nodes[primary].st.Put(env.app.Measurement(), have, csealed("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	present, err := env.client.Has(wire.TraceContext{}, []mle.Tag{have, ctag("absent-tag")})
	if err != nil {
		t.Fatalf("Has: %v", err)
	}
	if len(present) != 2 || !present[0] || present[1] {
		t.Fatalf("Has = %v, want [true false]", present)
	}
}

// TestSyncerPeriodic drives the Start/Stop loop.
func TestSyncerPeriodic(t *testing.T) {
	env := newTestCluster(t, 2, Config{Replicas: 1, ProbeInterval: time.Hour})
	tag := ctag("periodic")
	primary := env.client.ring.owners(tag, 1)[0]
	other := 1 - primary
	if _, err := env.nodes[other].st.Put(env.app.Measurement(), tag, csealed("periodic")); err != nil {
		t.Fatalf("put: %v", err)
	}
	for i := 0; i < 3; i++ {
		env.nodes[other].st.Get(tag)
	}

	s := NewSyncer(env.client, SyncConfig{MinHits: 2, Interval: 5 * time.Millisecond, Logf: t.Logf})
	s.Start()
	defer s.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for s.Copied() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("periodic syncer never copied the hot entry")
		}
		time.Sleep(time.Millisecond)
	}
	if !env.hasTag(primary, tag) {
		t.Error("hot entry not placed on its primary")
	}
}

// TestSyncerSkipsDownMembers: a dead member neither blocks the pass nor
// hides other members' hot entries.
func TestSyncerSkipsDownMembers(t *testing.T) {
	env := newTestCluster(t, 3, Config{Replicas: 2, FailThreshold: 1, ProbeInterval: time.Hour})
	// Mark node 2 down the way the router would: kill it and let a
	// probe-style failure flip it.
	env.nodes[2].kill(t)
	env.client.noteFailure(env.client.nodes[2], fmt.Errorf("test: member killed"))

	donor := 0
	tag := ctag("skip-down")
	if _, err := env.nodes[donor].st.Put(env.app.Measurement(), tag, csealed("skip")); err != nil {
		t.Fatalf("put: %v", err)
	}
	for i := 0; i < 3; i++ {
		env.nodes[donor].st.Get(tag)
	}
	s := NewSyncer(env.client, SyncConfig{MinHits: 2, Logf: t.Logf})
	copied, err := s.SyncOnce()
	if err != nil {
		t.Fatalf("SyncOnce with a down member: %v", err)
	}
	if copied < 1 {
		t.Errorf("SyncOnce copied %d entries, want >= 1", copied)
	}
}
