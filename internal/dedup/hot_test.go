package dedup

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"speed/internal/mle"
	"speed/internal/store"
)

// newMuxHit stores one 4 KiB result behind a RemoteClient on loopback
// TCP to a store.Server, with transition costs off, and returns a GET
// hit of it, warmed on both endpoints.
func newMuxHit(tb testing.TB) func() {
	env := newMuxEnv(tb, store.Config{}, nil, RemoteConfig{})
	tag := tagFromString("mux-hit-tag")
	sealed := mle.Sealed{
		Challenge:  bytes.Repeat([]byte{0xC1}, mle.ChallengeSize),
		WrappedKey: bytes.Repeat([]byte{0xD2}, mle.KeySize),
		Blob:       bytes.Repeat([]byte{0xAB}, 4096),
	}
	if err := putOne(env.client, tag, sealed, false); err != nil {
		tb.Fatalf("Put: %v", err)
	}
	get := func() {
		got, found, err := getOne(env.client, tag)
		if err != nil || !found {
			tb.Fatalf("Get = (found=%v, err=%v)", found, err)
		}
		if len(got.Blob) != len(sealed.Blob) {
			tb.Fatalf("blob length %d, want %d", len(got.Blob), len(sealed.Blob))
		}
	}
	for i := 0; i < 5; i++ {
		get()
	}
	return get
}

// TestMuxRoundTripAllocBound holds the full mux GET-hit path — append
// marshal, envelope send, server dispatch on the session goroutine, owned
// decode by the caller holding the read token — to a small allocation
// budget. The wire layer underneath is allocation-free (see
// internal/wire hot tests); what remains is the per-request bookkeeping
// the mux design requires (waiter channel, pending-map entry, timeout
// timer, interface boxing, and the OwnMessage copy that detaches the
// response from the channel's receive scratch) plus the store's lookup.
// The path measures 17; the bound leaves room for runtime noise, not
// for a per-frame buffer or a goroutine hand-off coming back.
func TestMuxRoundTripAllocBound(t *testing.T) {
	get := newMuxHit(t)
	// The server runs on other goroutines; AllocsPerRun counts their
	// allocations too, so the budget covers the whole round trip.
	const budget = 24
	if n := testing.AllocsPerRun(200, get); n > budget {
		t.Errorf("mux GET hit allocates %v times per op, want <= %d", n, budget)
	}
}

// BenchmarkHotMuxGetHit is one client's GET hit over real TCP —
// RemoteClient, mux, loopback, store.Server, dispatch and back — the
// remote hop of a hit_small hit, which `make bench-regress` pins
// against bench/baseline.txt.
func BenchmarkHotMuxGetHit(b *testing.B) {
	get := newMuxHit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// muxPutEntries caps the store behind newMuxPut, so that in the steady
// state every PUT evicts one entry and memory stays flat however many
// operations a benchmark runs.
const muxPutEntries = 1024

// newMuxPut returns a PUT of one 4 KiB result under a fresh tag per
// call, from a RemoteClient on loopback TCP to a store.Server over a
// volatile store, with transition costs off. The store is already full
// when it returns.
func newMuxPut(tb testing.TB) func() {
	env := newMuxEnv(tb, store.Config{MaxEntries: muxPutEntries}, nil, RemoteConfig{})
	sealed := mle.Sealed{
		Challenge:  bytes.Repeat([]byte{0xC1}, mle.ChallengeSize),
		WrappedKey: bytes.Repeat([]byte{0xD2}, mle.KeySize),
		Blob:       bytes.Repeat([]byte{0xAB}, 4096),
	}
	var n uint64
	put := func() {
		n++
		var tag mle.Tag
		binary.BigEndian.PutUint64(tag[:], n)
		if err := putOne(env.client, tag, sealed, false); err != nil {
			tb.Fatalf("Put %d: %v", n, err)
		}
	}
	for i := 0; i <= muxPutEntries; i++ {
		put()
	}
	return put
}

// TestMuxPutAllocBound holds the mux PUT path — a fresh 4 KiB item
// marshalled and sent, dispatched on the session goroutine straight
// from its receive scratch, copied once into the store, which evicts
// one entry, and the reply decoded by the caller — to a small
// allocation budget. The path measures 20; the bound leaves room for
// runtime noise, not for a server-side copy of the request.
func TestMuxPutAllocBound(t *testing.T) {
	put := newMuxPut(t)
	// The server runs on other goroutines; AllocsPerRun counts their
	// allocations too, so the budget covers the whole round trip.
	const budget = 22
	if n := testing.AllocsPerRun(200, put); n > budget {
		t.Errorf("mux PUT allocates %v times per op, want <= %d", n, budget)
	}
}

// BenchmarkHotMuxPut is one client's PUT of a fresh 4 KiB result over
// real TCP — RemoteClient, mux, loopback, store.Server, dispatch and
// back — the remote hop of a miss_durable miss without the WAL, which
// `make bench-regress` pins against bench/baseline.txt.
func BenchmarkHotMuxPut(b *testing.B) {
	put := newMuxPut(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put()
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
