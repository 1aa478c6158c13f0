package cluster

import (
	"fmt"
	"sync"
	"time"

	"speed/internal/mle"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// SyncConfig tunes the popular-result synchronizer.
type SyncConfig struct {
	// MinHits is the popularity threshold: only entries the member
	// served at least this many times are pulled. Zero selects 2 — a
	// result is "popular" once it has been deduplicated at least once.
	MinHits int64
	// Max caps how many entries one member contributes per cycle
	// (hottest first). Zero selects wire.MaxBatchItems.
	Max int
	// Interval is the Start cadence; zero selects 5s.
	Interval time.Duration
	// Telemetry, when non-nil, registers speed_cluster_sync_copies_total.
	Telemetry *telemetry.Registry
	// Logf is the diagnostic logger; defaults to the cluster client's.
	Logf func(format string, args ...any)
}

// Syncer is the wire-level successor of store.Replicator (Section
// IV-B's periodic popular-result synchronization): instead of copying
// between co-resident *Store instances, it pulls each live member's
// hottest sealed entries over the attested protocol (SyncPull) and
// re-places them through the ring — every popular result ends up on its
// tag's replica owners, so a member that computed a hot result alone
// (or absorbed sloppy writes while an owner was down) propagates it to
// wherever the router looks for it. Deterministic tags make this
// idempotent: stores keep the first version of a tag, so re-pushing
// never creates redundancy.
type Syncer struct {
	c    *Client
	cfg  SyncConfig
	logf func(format string, args ...any)

	stop chan struct{}
	done chan struct{}
	once sync.Once

	mu      sync.Mutex
	started bool
	seen    map[mle.Tag]bool
	copies  int64
	skipped int64

	copiesC  *telemetry.Counter
	skippedC *telemetry.Counter
}

// tagsOf projects a put batch onto its tags for a HAS probe.
func tagsOf(items []wire.PutItem) []mle.Tag {
	tags := make([]mle.Tag, len(items))
	for i, it := range items {
		tags[i] = it.Tag
	}
	return tags
}

// NewSyncer builds a syncer over the cluster client. The client's
// member channels and health state are reused; the syncer only ever
// talks to members currently marked up.
func NewSyncer(c *Client, cfg SyncConfig) *Syncer {
	if cfg.MinHits <= 0 {
		cfg.MinHits = 2
	}
	if cfg.Max <= 0 || cfg.Max > wire.MaxBatchItems {
		cfg.Max = wire.MaxBatchItems
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = c.logf
	}
	s := &Syncer{
		c:    c,
		cfg:  cfg,
		logf: cfg.Logf,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		seen: make(map[mle.Tag]bool),
	}
	if cfg.Telemetry != nil {
		s.copiesC = cfg.Telemetry.NewCounter("speed_cluster_sync_copies_total",
			"popular results copied onto their ring owners by the syncer")
		s.skippedC = cfg.Telemetry.NewCounter("speed_cluster_sync_skipped_total",
			"hot entries whose transfer the syncer skipped because the owner already held them")
	}
	return s
}

// SyncOnce performs one pull-and-place pass and returns how many
// entries were installed on ring owners. Members that fail the pull are
// skipped (and their failure feeds the health state machine); the pass
// itself only errors when the placement push fails cluster-wide.
func (s *Syncer) SyncOnce() (int, error) {
	best := make(map[mle.Tag]wire.SyncEntry)
	var pullErr error
	for _, n := range s.c.nodes {
		if !n.up.Load() {
			continue
		}
		entries, err := n.client.SyncPull(s.cfg.MinHits, s.cfg.Max)
		if err != nil {
			s.c.noteFailure(n, err)
			if pullErr == nil {
				pullErr = fmt.Errorf("cluster: sync pull from %s: %w", n.addr, err)
			}
			continue
		}
		s.c.noteSuccess(n)
		for _, e := range entries {
			if cur, ok := best[e.Tag]; !ok || e.Hits > cur.Hits {
				best[e.Tag] = e
			}
		}
	}

	s.mu.Lock()
	candidates := make([]wire.PutItem, 0, len(best))
	for tag, e := range best {
		if s.seen[tag] {
			continue
		}
		candidates = append(candidates, wire.PutItem{Tag: tag, Sealed: e.Sealed})
	}
	s.mu.Unlock()
	if len(candidates) == 0 {
		return 0, pullErr
	}

	// Chunk-wise transfer: probe each candidate's write targets before
	// shipping bytes. With chunked dedup the hot set is dominated by
	// content-addressed chunks shared across results and members, so the
	// owners frequently already hold an entry another member reported
	// hot — skipping it saves the sealed payload on the wire, not just a
	// duplicate insert at the destination. A candidate is skipped only
	// when EVERY member Put would replicate to already has it; the
	// probe is a hint, so a false negative costs one redundant transfer,
	// never correctness.
	items := candidates
	if present := s.c.hasAtWriteTargets(tagsOf(candidates)); len(present) == len(candidates) {
		items = items[:0]
		skipped := 0
		s.mu.Lock()
		for i, it := range candidates {
			if present[i] {
				s.seen[it.Tag] = true
				skipped++
				continue
			}
			items = append(items, it)
		}
		s.skipped += int64(skipped)
		s.mu.Unlock()
		s.skippedC.Add(int64(skipped))
	}
	if len(items) == 0 {
		return 0, pullErr
	}

	prs, err := s.c.Put(wire.TraceContext{}, items)
	if err != nil {
		return 0, fmt.Errorf("cluster: sync place: %w", err)
	}
	copied := 0
	s.mu.Lock()
	for i, pr := range prs {
		if pr.OK {
			s.seen[items[i].Tag] = true
			copied++
		}
	}
	s.copies += int64(copied)
	s.mu.Unlock()
	s.copiesC.Add(int64(copied))
	return copied, pullErr
}

// Copied reports the cumulative number of entries placed across all
// passes.
func (s *Syncer) Copied() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.copies
}

// Skipped reports the cumulative number of hot entries whose transfer
// was avoided because the owner already held them.
func (s *Syncer) Skipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Start launches periodic synchronization; calling it more than once is
// a no-op. Stop shuts it down.
func (s *Syncer) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.syncLoop()
}

func (s *Syncer) syncLoop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if _, err := s.SyncOnce(); err != nil {
				s.logf("cluster: sync pass: %v", err)
			}
		}
	}
}

// Stop terminates periodic synchronization and, if Start was called,
// waits for the worker to exit. Safe to call multiple times.
func (s *Syncer) Stop() {
	s.once.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
}
