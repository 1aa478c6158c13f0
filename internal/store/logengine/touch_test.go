package logengine

import (
	"testing"

	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// getHits reads a key and returns the hit count the engine reports.
func getHits(t *testing.T, e *Engine, key string) int64 {
	t.Helper()
	rec, status, err := get1(e, tagOf(key))
	if err != nil || status != storeengine.StatusHit {
		t.Fatalf("Get(%s): status %v err %v", key, status, err)
	}
	return rec.Hits
}

// TestHitCountsSurviveReopen: popularity accumulated against
// segment-resident records persists through a clean close and reopen
// (touch frames in the WAL / baked flush), not just through the hot
// cache's lifetime.
func TestHitCountsSurviveReopen(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()
	cfg := testConfig(t, p, dir)

	e := openTest(t, cfg)
	mustInsert(t, e, "popular", "v1")
	mustInsert(t, e, "cold", "v2")
	// Move both to a segment so later hits go through the touch overlay.
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustGet(t, e, "popular", "v1")
	}
	hits := getHits(t, e, "popular") // the read itself counts too
	if hits != 6 {
		t.Fatalf("hits before close = %d, want 6", hits)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := openTest(t, testConfig(t, p, dir))
	if got := getHits(t, e2, "popular"); got != hits+1 {
		t.Fatalf("hits after reopen = %d, want %d", got, hits+1)
	}
	if got := getHits(t, e2, "cold"); got != 1 {
		t.Fatalf("cold hits after reopen = %d, want 1", got)
	}
}

// TestHitCountsSurviveCheckpointAndCrash: a checkpoint makes the
// overlay durable, so a kill -9 afterwards loses only the touches that
// came later.
func TestHitCountsSurviveCheckpointAndCrash(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()

	e := openTest(t, testConfig(t, p, dir))
	mustInsert(t, e, "k", "v")
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 4; i++ {
		mustGet(t, e, "k", "v")
	}
	// Persist the overlay, then touch once more without checkpointing:
	// that last touch is the allowed loss window.
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mustGet(t, e, "k", "v")
	e.Crash()

	e2 := openTest(t, testConfig(t, p, dir))
	if got := getHits(t, e2, "k"); got != 5 {
		t.Fatalf("hits after crash = %d, want 5 (4 checkpointed + this read)", got)
	}
}

// TestHitCountsBakedByCompaction: compaction folds the overlay into the
// rewritten records, so the counts survive even after the WAL's touch
// frames are superseded and the overlay entries dropped.
func TestHitCountsBakedByCompaction(t *testing.T) {
	p := testPlatform()
	dir := t.TempDir()

	e := openTest(t, testConfig(t, p, dir))
	// One segment per record: a run long enough for the tiering policy.
	for i, k := range []string{"a", "b", "c", "d"} {
		mustInsert(t, e, k, "v1")
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		mustGet(t, e, "a", "v1")
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := e.Stats(); st.Compactions != 1 || st.Segments != 1 {
		t.Fatalf("compactions=%d segments=%d, want one merge into one segment", st.Compactions, st.Segments)
	}
	if n := len(e.touched); n != 0 {
		t.Fatalf("%d overlay entries survived compaction baking", n)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2 := openTest(t, testConfig(t, p, dir))
	if got := getHits(t, e2, "a"); got != 4 {
		t.Fatalf("hits after compaction+reopen = %d, want 4", got)
	}
}

// TestIterateSeesOverlayPopularity: Iterate must see overlay-applied
// counts for segment-resident records without waiting for a flush or
// compaction.
func TestIterateSeesOverlayPopularity(t *testing.T) {
	p := testPlatform()
	e := openTest(t, testConfig(t, p, t.TempDir()))
	mustInsert(t, e, "hot", "v1")
	mustInsert(t, e, "cool", "v2")
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 7; i++ {
		mustGet(t, e, "hot", "v1")
	}
	hits := make(map[string]int64)
	err := iterate(e, func(tag mle.Tag, rec storeengine.Record) bool {
		switch tag {
		case tagOf("hot"):
			hits["hot"] = rec.Hits
		case tagOf("cool"):
			hits["cool"] = rec.Hits
		}
		return true
	})
	if err != nil {
		t.Fatalf("Iterate: %v", err)
	}
	if hits["hot"] != 7 || hits["cool"] != 0 {
		t.Fatalf("Iterate hits = %v, want hot=7 cool=0", hits)
	}
}
