package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"speed/internal/mle"
)

func ringTag(i int) mle.Tag {
	h := sha256.Sum256([]byte(fmt.Sprintf("ring-sample-%d", i)))
	var t mle.Tag
	copy(t[:], h[:])
	return t
}

func ringNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("10.0.0.%d:7800", i+1)
	}
	return nodes
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := newRing([]string{"n1:1", "n2:1", "n3:1"})
	b := newRing([]string{"n1:1", "n2:1", "n3:1"})
	for i := 0; i < 200; i++ {
		tag := ringTag(i)
		if got, want := a.owners(tag, 2), b.owners(tag, 2); got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("tag %d: identical rings disagree: %v vs %v", i, got, want)
		}
	}
	// Reordering the node list must not move data: placement follows
	// the address, not the list position.
	shuffled := newRing([]string{"n3:1", "n1:1", "n2:1"})
	nameOf := map[int]string{0: "n1:1", 1: "n2:1", 2: "n3:1"}
	shuffledName := map[int]string{0: "n3:1", 1: "n1:1", 2: "n2:1"}
	for i := 0; i < 200; i++ {
		tag := ringTag(i)
		if nameOf[a.owners(tag, 1)[0]] != shuffledName[shuffled.owners(tag, 1)[0]] {
			t.Fatalf("tag %d: placement moved when node list was reordered", i)
		}
	}
}

func TestRingOwnersDistinct(t *testing.T) {
	r := newRing(ringNodes(5))
	for i := 0; i < 500; i++ {
		owners := r.owners(ringTag(i), 3)
		if len(owners) != 3 {
			t.Fatalf("owners returned %d nodes, want 3", len(owners))
		}
		seen := map[int]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner %d in %v", o, owners)
			}
			seen[o] = true
		}
	}
	// Asking for more owners than members yields every member once.
	if got := r.owners(ringTag(0), 99); len(got) != 5 {
		t.Errorf("owners(99) = %d nodes, want 5", len(got))
	}
}

// TestRingStability is the consistent-hashing property: adding or
// removing one member remaps roughly 1/N of a large tag sample and
// never touches the placement of the rest.
func TestRingStability(t *testing.T) {
	const samples = 10000
	for _, n := range []int{3, 5, 8} {
		nodes := ringNodes(n)
		before := newRing(nodes)
		grown := newRing(append(append([]string(nil), nodes...), "10.0.1.99:7800"))
		shrunk := newRing(nodes[:n-1])

		remapGrow, remapShrink := 0, 0
		for i := 0; i < samples; i++ {
			tag := ringTag(i)
			p := before.owners(tag, 1)[0]
			if g := grown.owners(tag, 1)[0]; g != p {
				// A tag may only move to the new member, never between
				// the old ones.
				if g != n {
					t.Fatalf("tag %d moved from member %d to old member %d on grow", i, p, g)
				}
				remapGrow++
			}
			if p == n-1 {
				// Its member was removed; it must remap somewhere.
				remapShrink++
				continue
			}
			if s := shrunk.owners(tag, 1)[0]; s != p {
				t.Fatalf("tag %d moved from surviving member %d to %d on shrink", i, p, s)
			}
		}
		// Expected remap fraction is 1/(N+1) on grow and ~1/N on
		// shrink; allow generous slack for vnode placement variance.
		maxGrow := samples * 2 / (n + 1)
		maxShrink := samples * 2 / n
		if remapGrow > maxGrow {
			t.Errorf("n=%d: grow remapped %d/%d tags, want <= %d", n, remapGrow, samples, maxGrow)
		}
		if remapShrink > maxShrink {
			t.Errorf("n=%d: shrink remapped %d/%d tags, want <= %d", n, remapShrink, samples, maxShrink)
		}
		if remapGrow == 0 {
			t.Errorf("n=%d: grow remapped nothing; new member owns no tags", n)
		}
	}
}

// TestRingBalance sanity-checks the vnode spread: with 64 vnodes per
// member no member should own a wildly disproportionate share.
func TestRingBalance(t *testing.T) {
	const samples = 10000
	r := newRing(ringNodes(4))
	counts := make([]int, 4)
	for i := 0; i < samples; i++ {
		counts[r.owners(ringTag(i), 1)[0]]++
	}
	for ni, c := range counts {
		if c < samples/4/3 || c > samples*3/4 {
			t.Errorf("member %d owns %d/%d tags; spread too uneven: %v", ni, c, samples, counts)
		}
	}
}

func TestRingCoordinateUsesTagPrefix(t *testing.T) {
	// The ring coordinate is the tag's leading 8 bytes; two tags that
	// share them land on the same member.
	r := newRing(ringNodes(7))
	var a, b mle.Tag
	binary.BigEndian.PutUint64(a[:8], 0xDEADBEEF12345678)
	binary.BigEndian.PutUint64(b[:8], 0xDEADBEEF12345678)
	b[31] = 0xFF
	if r.owners(a, 1)[0] != r.owners(b, 1)[0] {
		t.Error("tags with identical ring coordinates landed on different members")
	}
}
