package dedup

import (
	"bytes"
	"testing"

	"speed/internal/mle"
)

// TestMuxRoundTripAllocBound holds the full mux GET-hit path — append
// marshal, envelope send, server dispatch, owned decode, cross-
// goroutine handoff — to a small allocation budget. The wire layer
// underneath is allocation-free (see internal/wire hot tests); what
// remains here is the per-request bookkeeping the mux design requires
// (waiter channel, pending-map entry, interface boxing, and the
// OwnMessage copy that detaches the response from the channel's
// receive scratch). The bound is deliberately loose — its job is to
// catch a regression that reintroduces per-frame buffer allocations,
// not to freeze the exact count.
func TestMuxRoundTripAllocBound(t *testing.T) {
	env := newMuxEnv(t, nil, RemoteConfig{})

	tag := tagFromString("alloc-bound-tag")
	sealed := mle.Sealed{
		Challenge:  bytes.Repeat([]byte{0xC1}, mle.ChallengeSize),
		WrappedKey: bytes.Repeat([]byte{0xD2}, mle.KeySize),
		Blob:       bytes.Repeat([]byte{0xAB}, 4096),
	}
	if err := putOne(env.client, tag, sealed, false); err != nil {
		t.Fatalf("Put: %v", err)
	}

	get := func() {
		got, found, err := getOne(env.client, tag)
		if err != nil || !found {
			t.Fatalf("Get = (found=%v, err=%v)", found, err)
		}
		if len(got.Blob) != len(sealed.Blob) {
			t.Fatalf("blob length %d, want %d", len(got.Blob), len(sealed.Blob))
		}
	}
	// Warm every scratch buffer on both endpoints.
	for i := 0; i < 5; i++ {
		get()
	}
	// The server and mux reader run on other goroutines;
	// AllocsPerRun counts their allocations too, which is exactly what
	// we want: the budget covers the whole round trip.
	const budget = 100
	if n := testing.AllocsPerRun(200, get); n > budget {
		t.Errorf("mux GET hit allocates %v times per op, want <= %d", n, budget)
	}
}
