package dedup

import (
	"bytes"
	"errors"
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

// BenchmarkHotChunkedHit is a chunked hit through a LocalClient on a
// 256 KiB result with about half its chunks cached: two results that
// share their first 128 KiB are read alternately by a runtime whose
// chunk cache holds one result and no more. Each read refreshes the
// shared chunks and then fetches its own unique half, which evicts the
// other result's, so in the steady state every hit copies the shared
// half from the cache and fetches, opens and verifies the rest.
func BenchmarkHotChunkedHit(b *testing.B) {
	const half = 128 << 10
	p, st := newChunkStore(b)
	seeder := newChunkRuntime(b, p, st, "seeder", chunkTestThreshold)
	id := chunkFuncID(b, seeder)
	shared := chunkResult(61, half)
	inputs := [][]byte{[]byte("left"), []byte("right")}
	for i, in := range inputs {
		result := append(bytes.Clone(shared), chunkResult(int64(62+i), half)...)
		if _, _, err := seeder.Execute(id, in, func([]byte) ([]byte, error) { return result, nil }); err != nil {
			b.Fatalf("seed %q: %v", in, err)
		}
	}
	rt := newChunkRuntimeWith(b, p, st, "reader", Config{ChunkThreshold: chunkTestThreshold, ChunkCacheBytes: 2*half + 1<<10}, nil)
	hit := func(i int) {
		got, outcome, err := rt.Execute(id, inputs[i%2], func([]byte) ([]byte, error) {
			return nil, errors.New("recomputed a stored result")
		})
		if err != nil || outcome != OutcomeReused || len(got) != 2*half {
			b.Fatalf("hit %d = (%d bytes, %v, %v)", i, len(got), outcome, err)
		}
	}
	for i := 0; i < 4; i++ {
		hit(i) // reach the steady state
	}
	b.SetBytes(2 * half)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit(i)
	}
}
