package dedup

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

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

// allocsPerRun is testing.AllocsPerRun that also reports the bytes:
// the mallocs and heap bytes of one call of f, averaged over runs after
// a warm-up call, with GOMAXPROCS at 1. It counts every goroutine's
// allocations, so a round trip's server side counts too.
func allocsPerRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMuxRoundTripAllocBound holds the full mux GET-hit path — envelope
// marshalled into the frame and sealed in place, server dispatch on the
// session goroutine, the reply sealed straight from the engine's record
// view, decoded by the caller holding the read token — to a small
// allocation budget. The wire layer underneath is allocation-free (see
// internal/wire hot tests); what remains is the per-request bookkeeping
// the mux design requires (waiter channel, pending-map entry, interface
// boxing), the store's lookup and answer slices, and one buffer of the
// reply frame's size: the client keeps the frame the hit arrived in
// (wire.Channel.Detach) and reads the next into a fresh one. The path
// measures 12 allocations and 5,456 B; the bounds leave room for runtime
// noise, not for a per-request timer, a copy of the record or of the
// reply, or a goroutine hand-off coming back.
func TestMuxRoundTripAllocBound(t *testing.T) {
	get := newMuxHit(t)
	const budget, bytesBudget = 14, 6000
	if n, b := allocsPerRun(200, get); n > budget || b > bytesBudget {
		t.Errorf("mux GET hit allocates %d times and %d B per op, want <= %d and <= %d B", n, b, budget, bytesBudget)
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

// BenchmarkHotTCPFloor is the socket floor under BenchmarkHotMuxGetHit:
// a bare loopback TCP ping-pong of the same sizes (newTCPFloor).
func BenchmarkHotTCPFloor(b *testing.B) {
	pingPong := newTCPFloor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pingPong()
	}
}

// BenchmarkHotMuxGetHitOverFloor times BenchmarkHotMuxGetHit's hits and
// BenchmarkHotTCPFloor's ping-pongs in turn, four of each at a time,
// and reports the hits' time over the ping-pongs' as x-floor, which
// cmd/benchgate holds within 2.0. Taking them in turn puts both under
// the same load: run one after the other, seconds apart, their ratio
// moves with the machine's load. Runs of four keep each side warm.
func BenchmarkHotMuxGetHitOverFloor(b *testing.B) {
	get, pingPong := newMuxHit(b), newTCPFloor(b)
	var hit, floor time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 4 {
		n := min(4, b.N-i)
		t0 := time.Now()
		for j := 0; j < n; j++ {
			get()
		}
		t1 := time.Now()
		for j := 0; j < n; j++ {
			pingPong()
		}
		hit, floor = hit+t1.Sub(t0), floor+time.Since(t1)
	}
	b.ReportMetric(float64(hit)/float64(floor), "x-floor")
}

// newTCPFloor returns a bare loopback TCP ping-pong of a mux GET hit's
// sizes, 64 B out and 4,200 B back, read through a 16 KiB bufio.Reader
// like wire.Channel's, with no crypto, framing, mux or store: the
// socket floor of the remote leg. The connection is closed, and its
// server checked, at cleanup.
func newTCPFloor(tb testing.TB) func() {
	const reqSize, replySize = 64, 4200
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("Listen: %v", err)
	}
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		rd := bufio.NewReaderSize(conn, 16<<10)
		req, reply := make([]byte, reqSize), make([]byte, replySize)
		for {
			if _, err := io.ReadFull(rd, req); err != nil {
				served <- nil // the client hung up
				return
			}
			if _, err := conn.Write(reply); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		tb.Fatalf("Dial: %v", err)
	}
	tb.Cleanup(func() {
		conn.Close()
		ln.Close()
		if err := <-served; err != nil {
			tb.Errorf("floor server: %v", err)
		}
	})
	rd := bufio.NewReaderSize(conn, 16<<10)
	req, reply := make([]byte, reqSize), make([]byte, replySize)
	pingPong := func() {
		if _, err := conn.Write(req); err != nil {
			tb.Fatalf("Write: %v", err)
		}
		if _, err := io.ReadFull(rd, reply); err != nil {
			tb.Fatalf("Read: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		pingPong()
	}
	return pingPong
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
// marshalled into the frame and sealed in place, dispatched on the
// session goroutine straight from its receive scratch, copied once into
// the store, which evicts one entry, and the reply decoded by the
// caller — to a small allocation budget. The path measures 18
// allocations and 5,753 B; the bounds leave room for runtime noise, not
// for a per-request timer or a server-side copy of the request.
func TestMuxPutAllocBound(t *testing.T) {
	put := newMuxPut(t)
	const budget, bytesBudget = 20, 6400
	if n, b := allocsPerRun(200, put); n > budget || b > bytesBudget {
		t.Errorf("mux PUT allocates %d times and %d B per op, want <= %d and <= %d B", n, b, budget, bytesBudget)
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
// chunk cache holds exactly the chunks of the shared half, and has no
// host tier to keep the rest in. Each read
// counts the shared chunks again, so no unique chunk ever wins
// admission: in the steady state every hit copies the shared half from
// the cache and fetches, opens and verifies its own unique half. The
// runtime recorded both manifests on its first reads, so that half
// rides the manifest GET: one round trip per hit, which the benchmark
// checks.
func BenchmarkHotChunkedHit(b *testing.B) {
	const half = 128 << 10
	p, st := newChunkStore(b)
	seeder := newChunkRuntime(b, p, st, "seeder", chunkTestThreshold)
	id := chunkFuncID(b, seeder)
	shared := chunkResult(61, half)
	inputs := [][]byte{[]byte("left"), []byte("right")}
	var result []byte
	for i, in := range inputs {
		result = append(bytes.Clone(shared), chunkResult(int64(62+i), half)...)
		if _, _, err := seeder.Execute(id, in, func([]byte) ([]byte, error) { return result, nil }); err != nil {
			b.Fatalf("seed %q: %v", in, err)
		}
	}
	var sharedChunks int64
	for _, c := range seeder.chunker.Split(result) {
		if sharedChunks+int64(len(c)) > half {
			break
		}
		sharedChunks += int64(len(c))
	}
	rt := newChunkRuntime(b, p, st, "reader", chunkTestThreshold)
	rt.chunkCache.close()
	rt.chunkCache = newChunkCache(rt.Enclave(), sharedChunks, 0)
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
	misses := rt.Stats().PrefetchMisses
	b.SetBytes(2 * half)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit(i)
	}
	b.StopTimer()
	if s := rt.Stats(); s.PrefetchMisses != misses || s.ChunksPrefetched == 0 {
		b.Fatalf("%d steady-state hits needed a second chunk GET", s.PrefetchMisses-misses)
	}
}
