package cluster

import (
	"fmt"
	"sync"

	"speed/internal/mle"
	"speed/internal/wire"
)

// pickRead returns the first member in the tag's read order that has
// not already failed for this request.
func (c *Client) pickRead(tag mle.Tag, excluded map[int]bool) (int, bool) {
	for _, ni := range c.readOrder(tag) {
		if !excluded[ni] {
			return ni, true
		}
	}
	return 0, false
}

// pickWrite returns the next member a failover write should target:
// the first live, not-yet-failed member in ring order, or any
// not-yet-failed member when everything is down.
func (c *Client) pickWrite(tag mle.Tag, excluded map[int]bool) (int, bool) {
	all := c.ring.owners(tag, len(c.nodes))
	for _, ni := range all {
		if !excluded[ni] && c.nodes[ni].client.Healthy() {
			return ni, true
		}
	}
	for _, ni := range all {
		if !excluded[ni] {
			return ni, true
		}
	}
	return 0, false
}

// groupResult carries one member's answer for its slice of a batch.
type groupResult struct {
	ni   int
	idxs []int
	gets []wire.GetResult
	puts []wire.PutResult
	has  []bool
	err  error
}

// fanOut runs one member round trip per group and collects the answers;
// merging them into shared state is the caller's, serially. A single
// group — every batch of one, and any batch one member owns — runs
// inline, so it spawns no goroutine.
func fanOut(groups map[int][]int, run func(*groupResult)) []groupResult {
	out := make([]groupResult, 0, len(groups))
	for ni, idxs := range groups {
		out = append(out, groupResult{ni: ni, idxs: idxs})
	}
	if len(out) == 1 {
		run(&out[0])
		return out
	}
	var wg sync.WaitGroup
	for i := range out {
		gr := &out[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(gr)
		}()
	}
	wg.Wait()
	return out
}

// pick gathers a group's slice of the batch, in the group's own index
// order — a failover round lists indexes in the order failures came
// back, not in batch order. Only a batch of one is passed through
// uncopied.
func pick[T any](all []T, idxs []int) []T {
	if len(all) == 1 && len(idxs) == 1 {
		return all
	}
	part := make([]T, len(idxs))
	for k, idx := range idxs {
		part[k] = all[idx]
	}
	return part
}

// exclude marks member ni as failed for each of the given batch items.
func exclude(excluded []map[int]bool, idxs []int, ni int) {
	for _, idx := range idxs {
		if excluded[idx] == nil {
			excluded[idx] = make(map[int]bool)
		}
		excluded[idx][ni] = true
	}
}

// Get implements dedup.StoreClient: tags are grouped by their preferred
// member and fetched in parallel per-node round trips, merged back
// positionally. A member failure re-routes only that member's tags to
// the next replica in further rounds; results found away from their
// primary are read-repaired in the background. A miss from a reachable
// member is authoritative — misses never fail over, so a cold primary
// costs one recomputation, not a cluster-wide search. The call errors
// only when some tag runs out of reachable members. Each per-member
// round trip, failed ones included, becomes a route_get leg span of a
// sampled call.
func (c *Client) Get(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	if c.closed.Load() {
		return nil, errClientClosed
	}
	results := make([]wire.GetResult, len(tags))
	excluded := make([]map[int]bool, len(tags))
	var repairs map[int][]wire.PutItem
	pending := make([]int, len(tags))
	for i := range pending {
		pending[i] = i
	}
	var lastErr error
	for len(pending) > 0 {
		groups := make(map[int][]int)
		for _, idx := range pending {
			ni, ok := c.pickRead(tags[idx], excluded[idx])
			if !ok {
				return nil, fmt.Errorf("cluster: get: no member reachable for tag %x: %w", tags[idx][:4], lastErr)
			}
			groups[ni] = append(groups[ni], idx)
		}
		pending = nil
		for _, gr := range c.runGets(tc, tags, groups) {
			n := c.nodes[gr.ni]
			if gr.err != nil {
				c.noteFailover(n, len(gr.idxs), gr.err)
				exclude(excluded, gr.idxs, gr.ni)
				pending = append(pending, gr.idxs...)
				lastErr = gr.err
				continue
			}
			n.routedGet.Add(int64(len(gr.idxs)))
			for k, idx := range gr.idxs {
				results[idx] = gr.gets[k]
				if !gr.gets[k].Found {
					continue
				}
				if primary := c.ring.owners(tags[idx], 1)[0]; primary != gr.ni {
					if repairs == nil {
						repairs = make(map[int][]wire.PutItem)
					}
					repairs[primary] = append(repairs[primary], wire.PutItem{Tag: tags[idx], Sealed: gr.gets[k].Sealed})
				}
			}
		}
	}
	for primary, items := range repairs {
		c.repairAsync(primary, tc, items)
	}
	return results, nil
}

// runGets issues one GET per group and records its leg span: hit or
// miss for a single tag, the tag count for a batch.
func (c *Client) runGets(tc wire.TraceContext, tags []mle.Tag, groups map[int][]int) []groupResult {
	return fanOut(groups, func(gr *groupResult) {
		n := c.nodes[gr.ni]
		part := pick(tags, gr.idxs)
		start := legClock(tc)
		fwd, leg := forwardLeg(tc)
		gr.gets, gr.err = n.client.Get(fwd, part)
		if gr.err == nil && len(gr.gets) != len(part) {
			gr.err = fmt.Errorf("cluster: member %s answered %d results for %d tags", n.addr, len(gr.gets), len(part))
		}
		if !tc.Valid() {
			return
		}
		outcome := fmt.Sprintf("%d tags", len(part))
		if len(part) == 1 && gr.err == nil {
			outcome = "miss"
			if gr.gets[0].Found {
				outcome = "hit"
			}
		}
		c.recordLeg(tc, leg, "route_get", n.addr, start, outcome, gr.err)
	})
}

// Has implements dedup.StoreClient: each tag's primary member (the node
// a routed GET would consult first) is asked whether it holds the tag,
// in parallel per-member HAS round trips. Answers are hints in both
// directions — a member failure (which its transport notes against its
// health) or a short answer reports its tags as absent rather than failing the probe, so
// callers just transfer bytes they might have skipped. No hit counting
// or recency happens anywhere on this path.
func (c *Client) Has(tc wire.TraceContext, tags []mle.Tag) ([]bool, error) {
	if c.closed.Load() {
		return nil, errClientClosed
	}
	present := make([]bool, len(tags))
	groups := make(map[int][]int)
	for i, tag := range tags {
		if ni, ok := c.pickRead(tag, nil); ok {
			groups[ni] = append(groups[ni], i)
		}
	}
	grs := fanOut(groups, func(gr *groupResult) {
		gr.has, gr.err = c.nodes[gr.ni].client.Has(tc, pick(tags, gr.idxs))
	})
	for _, gr := range grs {
		if gr.err != nil || len(gr.has) != len(gr.idxs) {
			continue
		}
		for k, idx := range gr.idxs {
			present[idx] = gr.has[k]
		}
	}
	return present, nil
}

// Put implements dedup.StoreClient: every item fans out to its write
// targets (Replicas live owners) in one parallel pass; an item is OK as
// soon as any replica accepted it, a store-level rejection (quota,
// authorization) is its answer only when no replica accepted, and items
// whose every target failed at the transport level are re-routed in
// failover rounds. The call errors only when some item runs out of
// reachable members. Each per-member round trip becomes a route_put leg
// span of a sampled call.
func (c *Client) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	if c.closed.Load() {
		return nil, errClientClosed
	}
	results := make([]wire.PutResult, len(items))
	responded := make([]bool, len(items))
	excluded := make([]map[int]bool, len(items))
	var lastErr error

	merge := func(grs []groupResult) {
		for _, gr := range grs {
			n := c.nodes[gr.ni]
			if gr.err != nil {
				c.noteFailover(n, len(gr.idxs), gr.err)
				exclude(excluded, gr.idxs, gr.ni)
				lastErr = gr.err
				continue
			}
			n.routedPut.Add(int64(len(gr.idxs)))
			for k, idx := range gr.idxs {
				// The first answer stands unless a later replica accepted.
				if !responded[idx] || gr.puts[k].OK {
					results[idx] = gr.puts[k]
				}
				responded[idx] = true
			}
		}
	}

	// First pass: full replication to each item's write targets.
	groups := make(map[int][]int)
	for i, it := range items {
		for _, ni := range c.writeTargets(it.Tag) {
			groups[ni] = append(groups[ni], i)
		}
	}
	merge(c.runPuts(tc, items, groups))

	// Failover rounds: items with zero responses chase the next
	// reachable member, one target per round — availability now. Nothing
	// re-places such an item proactively: once its primary is back, the
	// primary's authoritative miss costs one recomputation, whose PUT
	// lands on the owners again.
	for round := 1; round < len(c.nodes); round++ {
		groups = make(map[int][]int)
		for i := range items {
			if responded[i] {
				continue
			}
			ni, found := c.pickWrite(items[i].Tag, excluded[i])
			if !found {
				return nil, fmt.Errorf("cluster: put: no member reachable for item %d: %w", i, lastErr)
			}
			groups[ni] = append(groups[ni], i)
		}
		if len(groups) == 0 {
			break
		}
		merge(c.runPuts(tc, items, groups))
	}

	for i := range items {
		if !responded[i] {
			return nil, fmt.Errorf("cluster: put: no replica reachable for item %d: %w", i, lastErr)
		}
	}
	return results, nil
}

// runPuts issues one PUT per group and records its leg span:
// "replicated" for a single item, the item count for a batch.
func (c *Client) runPuts(tc wire.TraceContext, items []wire.PutItem, groups map[int][]int) []groupResult {
	return fanOut(groups, func(gr *groupResult) {
		n := c.nodes[gr.ni]
		part := pick(items, gr.idxs)
		start := legClock(tc)
		fwd, leg := forwardLeg(tc)
		gr.puts, gr.err = n.client.Put(fwd, part)
		if gr.err == nil && len(gr.puts) != len(part) {
			gr.err = fmt.Errorf("cluster: member %s answered %d results for %d items", n.addr, len(gr.puts), len(part))
		}
		if !tc.Valid() {
			return
		}
		outcome := "replicated"
		if len(part) > 1 {
			outcome = fmt.Sprintf("%d items", len(part))
		}
		c.recordLeg(tc, leg, "route_put", n.addr, start, outcome, gr.err)
	})
}
