// Package cluster scales the encrypted ResultStore beyond one server:
// a consistent-hash ring partitions the tag space over N independent
// resultstore servers, and a Client routes GET/PUT traffic to each
// tag's replica owners with failover and read-repair — the
// multi-machine deployment Section IV-B sketches ("deploy a master
// ResultStore on a dedicated server, which periodically synchronizes
// the popular results from different machines"), generalized from one
// master to a partitioned store tier. The cluster converges one way:
// every PUT is written to its tag's live owners, and a hit found away
// from its primary is copied back there (read-repair). There is no
// periodic synchronization: an entry written while its primary was
// down costs one recomputation on its first read after the primary
// returns, and then lives on its owners again.
//
// Trust model: each member is an ordinary attested resultstore. The
// Client pins one store measurement for every node, so a node that does
// not run the expected store code never completes the handshake. A
// malicious-but-attested host can still drop requests or answer "not
// found" — exactly the untrusted-storage assumption the store already
// lives under — costing recomputation, never confidentiality: results
// cross the wire sealed under MLE keys the store tier cannot derive.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"

	"speed/internal/mle"
)

// vnodes is the virtual-node count per member. 64 points per node
// keeps the expected load imbalance across members within a few
// percent while the ring stays small enough to rebuild on any
// membership change.
const vnodes = 64

// ring is an immutable consistent-hash ring: every member contributes
// vnodes points, and a tag is owned by the first points clockwise from
// its hash. Placement is deterministic in the member list alone, so
// every client routes identically, and adding or removing one member
// remaps only ~1/N of the tag space (the vnode points of the changed
// member), never reshuffling the rest.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  int
}

type ringPoint struct {
	hash uint64
	node int // index into the member list
}

// newRing builds the ring for the given member addresses. Ring points
// are derived from the member address, not its index, so reordering the
// configured node list does not move data.
func newRing(nodes []string) *ring {
	r := &ring{
		points: make([]ringPoint, 0, len(nodes)*vnodes),
		nodes:  len(nodes),
	}
	for i, node := range nodes {
		for v := 0; v < vnodes; v++ {
			h := sha256.Sum256([]byte("speed/ring/v1\x00" + node + "\x00" + strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{
				hash: binary.BigEndian.Uint64(h[:8]),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// owners returns the first n distinct members clockwise from the tag's
// ring position. owners(tag, 1)[0] is the tag's primary; the next
// entries are its replica successors. Tags are already uniform
// cryptographic hashes, so their leading bytes are used directly as the
// ring coordinate.
func (r *ring) owners(tag mle.Tag, n int) []int {
	if r.nodes == 0 {
		return nil
	}
	if n > r.nodes {
		n = r.nodes
	}
	h := binary.BigEndian.Uint64(tag[:8])
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= h
	})
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}
