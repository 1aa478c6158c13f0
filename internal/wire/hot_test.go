package wire

import (
	"bytes"
	"crypto/cipher"
	"errors"
	"io"
	"runtime"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
)

// The hot-path contract: once a channel has warmed up (scratch buffers
// grown to the session's frame size), Send, Recv, AppendMarshal and
// AppendEnvelope perform zero heap allocations per frame. These tests
// enforce the contract with testing.AllocsPerRun; the BenchmarkHot*
// benchmarks below feed the benchstat regression gate (make
// bench-regress).

// bufConn is a single-goroutine in-memory duplex: reads drain one
// bytes.Buffer, writes fill another. Unlike net.Pipe it never blocks,
// so a full request/response round trip runs on one goroutine — which
// is what lets AllocsPerRun (which measures allocations across the
// whole process) attribute every allocation to the wire path under
// test.
type bufConn struct {
	r, w *bytes.Buffer
}

func (c *bufConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *bufConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *bufConn) Close() error                { return nil }

// bufPipe returns two connected bufConns.
func bufPipe() (client, server *bufConn) {
	c2s := new(bytes.Buffer)
	s2c := new(bytes.Buffer)
	return &bufConn{r: s2c, w: c2s}, &bufConn{r: c2s, w: s2c}
}

// hotChannelPair builds a connected channel pair directly (no
// handshake, fixed traffic keys) over a bufPipe, so both endpoints run
// on the calling goroutine.
func hotChannelPair(tb testing.TB) (*Channel, *Channel) {
	tb.Helper()
	mk := func(key string) (cipher.AEAD, []byte) {
		k := []byte(key)
		a, err := newAEAD(k)
		if err != nil {
			tb.Fatalf("newAEAD: %v", err)
		}
		// ratchet zeroizes and replaces the key; give each AEAD its own
		// mutable copy.
		return a, append([]byte(nil), k...)
	}
	cc, sc := bufPipe()
	c2s, c2sKey := mk("hot-test-c2s-key")
	s2c, s2cKey := mk("hot-test-s2c-key")
	c2s2, c2sKey2 := mk("hot-test-c2s-key")
	s2c2, s2cKey2 := mk("hot-test-s2c-key")
	client := &Channel{conn: cc, rekeyEvery: rekeyInterval, send: c2s, sendKey: c2sKey, recv: s2c, recvKey: s2cKey}
	server := &Channel{conn: sc, rekeyEvery: rekeyInterval, send: s2c2, sendKey: s2cKey2, recv: c2s2, recvKey: c2sKey2}
	return client, server
}

// getHitSealed builds a GET-hit-sized sealed triple: a 4 KiB result
// blob plus challenge and wrapped key, the shape of the paper's
// dedup-hit fast path.
func getHitSealed() mle.Sealed {
	blob := make([]byte, 4096)
	for i := range blob {
		blob[i] = byte(i)
	}
	return mle.Sealed{
		Challenge:  bytes.Repeat([]byte{0xC1}, mle.ChallengeSize),
		WrappedKey: bytes.Repeat([]byte{0xD2}, mle.KeySize),
		Blob:       blob,
	}
}

func TestChannelSendRecvZeroAlloc(t *testing.T) {
	client, server := hotChannelPair(t)
	payload := bytes.Repeat([]byte{0xAB}, 4096)

	roundTrip := func() {
		if err := client.Send(payload); err != nil {
			t.Fatalf("send: %v", err)
		}
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if len(got) != len(payload) {
			t.Fatalf("recv %d bytes, want %d", len(got), len(payload))
		}
		if err := server.Send(got); err != nil {
			t.Fatalf("echo send: %v", err)
		}
		if _, err := client.Recv(); err != nil {
			t.Fatalf("echo recv: %v", err)
		}
	}
	// Warm the scratch buffers to the session's frame size.
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Errorf("Send/Recv round trip allocates %v times per op, want 0", n)
	}
}

// readCountConn counts the reads a channel makes of its transport.
type readCountConn struct {
	io.ReadWriteCloser
	reads int
}

func (c *readCountConn) Read(p []byte) (int, error) {
	c.reads++
	return c.ReadWriteCloser.Read(p)
}

// TestRecvOneReadPerFrame holds Recv to one transport read per 4 KiB
// frame, header and payload together, and to a read per four frames
// when they arrive back to back: one read syscall per frame, not two.
func TestRecvOneReadPerFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	for _, n := range []int{1, 64} {
		client, server := hotChannelPair(t)
		conn := &readCountConn{ReadWriteCloser: server.conn}
		server.conn = conn
		for i := 0; i < n; i++ {
			if err := client.Send(payload); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		for i := 0; i < n; i++ {
			if got, err := server.Recv(); err != nil || len(got) != len(payload) {
				t.Fatalf("recv %d: %d bytes, %v", i, len(got), err)
			}
		}
		most := (n+3)/4 + 1
		if n == 1 {
			most = 1
		}
		if conn.reads > most {
			t.Errorf("%d frames took %d reads, want at most %d", n, conn.reads, most)
		}
	}
}

func TestChannelMessageSendZeroAlloc(t *testing.T) {
	client, server := hotChannelPair(t)
	// Box the messages once: passing a concrete struct to SendEnvelope in
	// the loop would itself allocate the interface value.
	var req Message = GetRequest{Tags: []mle.Tag{{1, 2, 3}}}
	var resp Message = GetResponse{Results: []GetResult{{Found: true, Sealed: getHitSealed()}}}

	roundTrip := func() {
		if err := client.SendEnvelope(7, req); err != nil {
			t.Fatalf("send request: %v", err)
		}
		if _, err := server.Recv(); err != nil {
			t.Fatalf("server recv: %v", err)
		}
		if err := server.SendEnvelope(7, resp); err != nil {
			t.Fatalf("send response: %v", err)
		}
		if _, err := client.Recv(); err != nil {
			t.Fatalf("client recv: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Errorf("SendEnvelope round trip allocates %v times per op, want 0", n)
	}
}

func TestAppendMarshalZeroAlloc(t *testing.T) {
	var msg Message = GetResponse{Results: []GetResult{{Found: true, Sealed: getHitSealed()}}}
	buf := AppendMarshal(nil, msg) // size the scratch
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendMarshal(buf[:0], msg)
	}); n != 0 {
		t.Errorf("AppendMarshal into sized scratch allocates %v times per op, want 0", n)
	}
	env := AppendEnvelope(nil, 1, TraceContext{}, msg)
	if n := testing.AllocsPerRun(100, func() {
		env = AppendEnvelope(env[:0], 42, TraceContext{}, msg)
	}); n != 0 {
		t.Errorf("AppendEnvelope into sized scratch allocates %v times per op, want 0", n)
	}
}

func TestReadFrameIntoZeroAlloc(t *testing.T) {
	frame := bytes.Repeat([]byte{0x5A}, 1024)
	var wireBytes bytes.Buffer
	if err := WriteFrame(&wireBytes, frame); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	encoded := append([]byte(nil), wireBytes.Bytes()...)

	buf := make([]byte, 0, 2048)
	r := bytes.NewReader(encoded)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(encoded)
		got, err := ReadFrameInto(r, buf)
		if err != nil {
			t.Fatalf("ReadFrameInto: %v", err)
		}
		buf = got[:0]
	}); n != 0 {
		t.Errorf("ReadFrameInto with sized scratch allocates %v times per op, want 0", n)
	}
}

// TestRecvPayloadValidUntilNextRecv pins the ownership contract: the
// slice returned by Recv is reused by the next Recv, and Detach (which
// recvEnvelope calls) takes decoded messages out of that window.
func TestRecvPayloadValidUntilNextRecv(t *testing.T) {
	client, server := hotChannelPair(t)

	if err := client.Send([]byte("first-payload")); err != nil {
		t.Fatal(err)
	}
	first, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("SECOND-OVERWR")); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	// Same length, same scratch: the first slice must now show the
	// second frame's bytes — proof the buffer is reused, and why
	// retaining a Recv payload is a bug.
	if string(first) == "first-payload" {
		t.Error("Recv payload survived a subsequent Recv; expected scratch reuse")
	}

	// A decoded message whose frame was detached, by contrast, survives.
	put := PutRequest{Items: []PutItem{{Tag: mle.Tag{9}, Sealed: getHitSealed()}}}
	if err := client.SendEnvelope(1, put); err != nil {
		t.Fatal(err)
	}
	_, got1, err := recvEnvelope(server)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Clone(got1.(PutRequest).Items[0].Sealed.Blob)
	if err := client.SendEnvelope(2, PutRequest{Items: []PutItem{{Tag: mle.Tag{8}, Sealed: mle.Sealed{Blob: bytes.Repeat([]byte{0xFF}, 4096+mle.ChallengeSize+mle.KeySize+20)}}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := recvEnvelope(server); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1.(PutRequest).Items[0].Sealed.Blob, blob) {
		t.Error("detached message mutated by a subsequent receive")
	}
}

// TestOwnMessageDetaches: a GET reply whose frame the reader detached
// owns its sealed bytes. It survives the next Recv, a frame of the same
// size that would land in the old scratch, and the Recv after that,
// into the fresh scratch; a reply that was not detached is overwritten.
func TestOwnMessageDetaches(t *testing.T) {
	client, server := hotChannelPair(t)
	reply := func(fill byte) GetResponse {
		s := getHitSealed()
		s.Blob = bytes.Repeat([]byte{fill}, len(s.Blob))
		return GetResponse{Results: []GetResult{{Found: true, Sealed: s}, {Found: false}}}
	}
	recvGet := func() GetResponse {
		t.Helper()
		payload, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		_, _, msg, err := UnmarshalEnvelope(payload)
		if err != nil {
			t.Fatal(err)
		}
		return msg.(GetResponse)
	}
	for i, fill := range []byte{0x11, 0x22, 0x33} {
		if err := server.SendEnvelope(uint64(i), reply(fill)); err != nil {
			t.Fatal(err)
		}
	}
	kept := recvGet()
	client.Detach()
	scratch := recvGet() // into a fresh scratch, which it keeps
	recvGet()            // overwrites scratch, not kept
	want := Marshal(reply(0x11))
	if got := Marshal(kept); !bytes.Equal(got, want) {
		t.Error("detached GET reply changed after two more Recvs")
	}
	if bytes.Equal(scratch.Results[0].Sealed.Blob, bytes.Repeat([]byte{0x22}, len(scratch.Results[0].Sealed.Blob))) {
		t.Error("a reply that was not detached survived the next Recv; expected scratch reuse")
	}
}

// TestRecvAuthFailAccounting pins the telemetry contract across an
// authentication failure: bytesIn counts only authenticated frames,
// while tampered frames land in the AuthFailures/AuthFailBytes
// counters.
func TestRecvAuthFailAccounting(t *testing.T) {
	client, server := hotChannelPair(t)

	if err := client.Send([]byte("good frame one")); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	goodBytes := server.BytesReceived()
	if goodBytes <= 0 {
		t.Fatalf("BytesReceived = %d after authenticated frame", goodBytes)
	}

	// Second frame arrives tampered: flip one ciphertext bit in the
	// server's inbound buffer.
	if err := client.Send([]byte("good frame two")); err != nil {
		t.Fatal(err)
	}
	inbound := server.conn.(*bufConn).r
	raw := inbound.Bytes()
	tamperedLen := len(raw)
	raw[len(raw)-1] ^= 0x01
	if _, err := server.Recv(); !errors.Is(err, ErrChannelAuth) {
		t.Fatalf("Recv of tampered frame = %v, want ErrChannelAuth", err)
	}

	if got := server.BytesReceived(); got != goodBytes {
		t.Errorf("BytesReceived = %d after auth failure, want unchanged %d", got, goodBytes)
	}
	if got := server.AuthFailures(); got != 1 {
		t.Errorf("AuthFailures = %d, want 1", got)
	}
	if got := server.AuthFailBytes(); got != int64(tamperedLen) {
		t.Errorf("AuthFailBytes = %d, want %d (payload+header)", got, tamperedLen)
	}
	if got := server.AuthFailBytes() + server.BytesReceived(); got != client.BytesSent() {
		t.Errorf("accounted bytes %d != bytes sent %d", got, client.BytesSent())
	}
}

// TestOversizedHelloRejected is the pre-attestation resource-exhaustion
// fix: a handshake frame announcing more than maxHelloSize is rejected
// on the length prefix alone — before the announced payload is
// allocated or read.
func TestOversizedHelloRejected(t *testing.T) {
	// A length prefix of 1 MiB is a legal frame (< MaxFrameSize) but an
	// illegal hello (> maxHelloSize).
	oversized := make([]byte, frameHeaderLen)
	const announced = 1 << 20
	oversized[1] = announced >> 16 // big-endian 0x00100000

	r := bytes.NewReader(oversized)
	if _, err := readHelloFrame(r); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readHelloFrame = %v, want ErrFrameTooLarge", err)
	}
	// Rejection must be cheap: no buffer anywhere near the announced
	// size may have been allocated. Error construction allocates a few
	// small objects, so bound bytes, not allocation counts.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		r.Reset(oversized)
		if _, err := readHelloFrame(r); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("readHelloFrame = %v, want ErrFrameTooLarge", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > announced {
		t.Errorf("rejecting 10 oversized hellos allocated %d bytes; the announced size must not be allocated", grew)
	}

	// The same prefix is fine for an established channel's frames...
	if _, err := readFrameLimit(bytes.NewReader(oversized), MaxFrameSize, nil); err != nil && errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("1 MiB frame rejected on an established channel: %v", err)
	}
	// ...and a larger-than-MaxFrameSize prefix is rejected everywhere.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrameLimit(bytes.NewReader(huge), MaxFrameSize, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("4 GiB frame accepted: %v", err)
	}
}

// TestHandshakeRejectsOversizedHello drives the cap end to end: a raw
// client that announces a huge hello is cut off by ServerHandshake.
func TestHandshakeRejectsOversizedHello(t *testing.T) {
	attacker, victim := bufPipe()
	// 16 MiB announced hello: within MaxFrameSize, far over maxHelloSize.
	if _, err := attacker.Write([]byte{0x01, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	_, err := readHelloFrame(victim)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("server hello read = %v, want ErrFrameTooLarge", err)
	}
}

// TestChannelConcurrentSendRecv exercises the per-direction scratch
// buffers under the race detector: one goroutine sends while the other
// echoes, in both directions at once, over a real net.Pipe-backed
// handshake pair.
func TestChannelConcurrentSendRecv(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	app, _ := p.Create("app", []byte("app code"))
	st, _ := p.Create("store", []byte("store code"))
	client, server := handshakePair(t, p, app, st, nil)
	defer client.Close()
	defer server.Close()

	const frames = 200
	errCh := make(chan error, 2)
	go func() {
		for i := 0; i < frames; i++ {
			got, err := server.Recv()
			if err != nil {
				errCh <- err
				return
			}
			if err := server.Send(got); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	go func() {
		payload := bytes.Repeat([]byte{0x77}, 512)
		for i := 0; i < frames; i++ {
			payload[0] = byte(i)
			if err := client.Send(payload); err != nil {
				errCh <- err
				return
			}
			got, err := client.Recv()
			if err != nil {
				errCh <- err
				return
			}
			if got[0] != byte(i) {
				errCh <- errors.New("echo mismatch")
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// discardConn swallows writes, for send-only benchmarks.
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

var benchSink int

// BenchmarkChannelRoundTrip is the headline hot-path benchmark: a full
// request/response exchange — GET request out, GET-hit-sized sealed
// response back — over a warmed channel pair. Steady state is 0
// allocs/op (enforced by TestChannelSendRecvZeroAlloc and friends) and
// the benchstat gate holds time and allocations to the checked-in
// baseline.
func BenchmarkChannelRoundTrip(b *testing.B) {
	client, server := hotChannelPair(b)
	var req Message = GetRequest{Tags: []mle.Tag{{1, 2, 3}}}
	var resp Message = GetResponse{Results: []GetResult{{Found: true, Sealed: getHitSealed()}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.SendEnvelope(uint64(i), req); err != nil {
			b.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			b.Fatal(err)
		}
		if err := server.SendEnvelope(uint64(i), resp); err != nil {
			b.Fatal(err)
		}
		got, err := client.Recv()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = len(got)
	}
}

// BenchmarkHotSend measures seal + frame + write for a 4 KiB payload.
func BenchmarkHotSend(b *testing.B) {
	ch := &Channel{conn: discardConn{}, rekeyEvery: rekeyInterval}
	var err error
	if ch.send, err = newAEAD([]byte("hot-bench-key-16")); err != nil {
		b.Fatal(err)
	}
	ch.sendKey = []byte("hot-bench-key-16")
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ch.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotAppendMarshal measures message encoding into reused
// scratch for a GET-hit-sized response.
func BenchmarkHotAppendMarshal(b *testing.B) {
	var msg Message = GetResponse{Results: []GetResult{{Found: true, Sealed: getHitSealed()}}}
	buf := AppendMarshal(nil, msg)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMarshal(buf[:0], msg)
	}
	benchSink = len(buf)
}

// BenchmarkHotReadFrameInto measures frame reads into reused scratch.
func BenchmarkHotReadFrameInto(b *testing.B) {
	frame := bytes.Repeat([]byte{0x5A}, 4096)
	var wireBytes bytes.Buffer
	if err := WriteFrame(&wireBytes, frame); err != nil {
		b.Fatal(err)
	}
	encoded := append([]byte(nil), wireBytes.Bytes()...)
	r := bytes.NewReader(encoded)
	buf := make([]byte, 0, 8192)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(encoded)
		got, err := ReadFrameInto(r, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = got[:0]
	}
}
