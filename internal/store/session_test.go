package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// One session is one goroutine: it reads a request, dispatches it and
// writes the reply before it reads the next, for GET, HAS and PUT alike.

// startSession runs a telemetry-instrumented server over a volatile
// store with opts and opens one raw session to it.
func startSession(t *testing.T, opts ...ServerOption) (*Server, *wire.Channel) {
	t.Helper()
	return startSessionOn(t, Config{}, opts...)
}

// startSessionOn is startSession over a store built from cfg, its
// enclave supplied. The session has a deadline, so a wedged pipeline
// fails the test instead of hanging it.
func startSessionOn(t *testing.T, cfg Config, opts ...ServerOption) (*Server, *wire.Channel) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	cfg.Enclave = storeEnc
	st := testStore(t, cfg)
	srv := startServer(t, st, append([]ServerOption{WithTelemetry(telemetry.NewRegistry())}, opts...)...)
	return srv, dialStoreWithin(t, srv.Addr().String(), appEnc, storeEnc.Measurement(), 10*time.Second)
}

// sendPipeline writes n envelopes with IDs 1..n without reading a reply,
// cycling GET, HAS and PUT over distinct tags, and returns the reply
// kind each ID must be answered with and the number sent per request
// kind.
func sendPipeline(t *testing.T, ch *wire.Channel, n int) (map[uint64]wire.Kind, map[wire.Kind]int) {
	t.Helper()
	want := make(map[uint64]wire.Kind, n)
	sent := make(map[wire.Kind]int)
	for i := 1; i <= n; i++ {
		tag := tagOf(fmt.Sprint("pipelined-", i))
		var req wire.Message
		switch i % 3 {
		case 0:
			req, want[uint64(i)] = wire.GetRequest{Tags: []mle.Tag{tag}}, wire.KindGetResponse
		case 1:
			req, want[uint64(i)] = wire.HasRequest{Tags: []mle.Tag{tag}}, wire.KindHasResponse
		default:
			req, want[uint64(i)] = wire.PutRequest{Items: []wire.PutItem{{Tag: tag, Sealed: sealedOf("v")}}}, wire.KindPutResponse
		}
		if err := ch.SendEnvelope(uint64(i), req); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		sent[req.Kind()]++
	}
	return want, sent
}

// TestSessionPipeline pipelines 64 mixed requests on one session and
// then reads 64 replies: every request ID is answered exactly once,
// with its request's reply kind. Once the server is closed,
// speed_server_request_seconds holds one observation per request under
// its op label and no request is left counted in flight.
func TestSessionPipeline(t *testing.T) {
	srv, ch := startSession(t)
	const n = 64
	want, sent := sendPipeline(t, ch, n)
	for i := 0; i < n; i++ {
		payload, err := ch.Recv()
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, n, err)
		}
		id, _, msg, err := wire.UnmarshalEnvelope(payload)
		if err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
		kind, ok := want[id]
		if !ok {
			t.Fatalf("reply for ID %d, which is unknown or already answered", id)
		}
		if msg.Kind() != kind {
			t.Errorf("ID %d answered with %v, want %v", id, msg.Kind(), kind)
		}
		delete(want, id)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for kind, op := range requestOps {
		if got := srv.tel.reqSeconds[kind].Snapshot().Count; got != int64(sent[kind]) {
			t.Errorf("speed_server_request_seconds{op=%q} count = %d, want %d", op.label, got, sent[kind])
		}
	}
	if v := srv.tel.inflight.Value(); v != 0 {
		t.Errorf("speed_server_inflight_requests = %d after Close, want 0", v)
	}
}

// TestSessionPipelinedPutPayloads pins what lets the session hand a PUT
// to the store straight from the channel's receive scratch, which the
// next Recv overwrites: the store copies what it keeps. 64 PUTs of
// distinct 4 KiB payloads are pipelined on one session without reading
// a reply, and every tag then reads back byte for byte — on a volatile
// store and on a log-engine store with a data directory, whose memtable
// holds them all.
func TestSessionPipelinedPutPayloads(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"memory", func(*testing.T) Config { return Config{} }},
		{EngineLog, func(t *testing.T) Config { return Config{DataDir: t.TempDir()} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, ch := startSessionOn(t, c.cfg(t))
			const n = 64
			tag := func(i int) mle.Tag { return tagOf(fmt.Sprint("payload-", i)) }
			sealed := func(i int) mle.Sealed {
				rng := rand.New(rand.NewSource(int64(i)))
				s := mle.Sealed{Challenge: make([]byte, 16), WrappedKey: make([]byte, 16), Blob: make([]byte, 4<<10)}
				rng.Read(s.Challenge)
				rng.Read(s.WrappedKey)
				rng.Read(s.Blob)
				return s
			}
			for i := 1; i <= n; i++ {
				req := wire.PutRequest{Items: []wire.PutItem{{Tag: tag(i), Sealed: sealed(i)}}}
				if err := ch.SendEnvelope(uint64(i), req); err != nil {
					t.Fatalf("send PUT %d: %v", i, err)
				}
			}
			for i := 1; i <= n; i++ {
				payload, err := ch.Recv()
				if err != nil {
					t.Fatalf("reply %d of %d: %v", i, n, err)
				}
				_, _, msg, err := wire.UnmarshalEnvelope(payload)
				if err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
				if pr, ok := msg.(wire.PutResponse); !ok || len(pr.Results) != 1 || !pr.Results[0].OK {
					t.Fatalf("reply %d = %#v, want one accepted PUT", i, msg)
				}
			}
			for i := 1; i <= n; i++ {
				got, err := getOver(ch, tag(i))
				if err != nil {
					t.Fatalf("GET %d: %v", i, err)
				}
				want := sealed(i)
				if !got.Found || !bytes.Equal(got.Sealed.Blob, want.Blob) ||
					!bytes.Equal(got.Sealed.Challenge, want.Challenge) || !bytes.Equal(got.Sealed.WrappedKey, want.WrappedKey) {
					t.Fatalf("GET %d (found=%v) does not return the bytes its PUT sent", i, got.Found)
				}
			}
		})
	}
}

// TestSessionReplyWriteFails: a client that stops reading loses its
// session once the reply it does not read has waited the write timeout
// on the socket, and no later than one watchdog period after; the
// request is still observed exactly once and leaves the in-flight
// gauge. A GET is the request whose reply can be made large enough to
// fill the socket buffers: 8 MiB against a 4 KiB client receive buffer
// and the kernel's 4 MiB send buffer cap.
func TestSessionReplyWriteFails(t *testing.T) {
	t.Run("get", func(t *testing.T) {
		const writeTimeout = 400 * time.Millisecond
		p := enclave.NewPlatform(enclave.Config{})
		storeEnc, _ := p.Create("store", []byte("store code"))
		appEnc, _ := p.Create("app", []byte("app code"))
		srv := startServer(t, testStore(t, Config{Enclave: storeEnc}), WithTelemetry(telemetry.NewRegistry()),
			func(s *Server) { s.writeTimeout = writeTimeout })
		period := writeTimeout / 4 // the session's watchdog fires every quarter of its shortest timeout

		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer conn.Close()
		_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		ch, err := wire.ClientHandshake(conn, appEnc, storeEnc.Measurement())
		if err != nil {
			t.Fatalf("ClientHandshake: %v", err)
		}
		big := sealedOf("v")
		big.Blob = bytes.Repeat([]byte{0xB1}, 8<<20)
		if pr, err := putOver(ch, tagOf("big"), big); err != nil || !pr.OK {
			t.Fatalf("PUT = %+v, %v", pr, err)
		}

		start := time.Now()
		if err := ch.SendEnvelope(1, wire.GetRequest{Tags: []mle.Tag{tagOf("big")}}); err != nil {
			t.Fatalf("send: %v", err)
		}
		for srv.tel.active.Value() != 0 {
			if time.Since(start) > 5*time.Second {
				t.Fatal("the session outlived a reply its client never read by 5s")
			}
			time.Sleep(time.Millisecond)
		}
		took := time.Since(start)
		if took < writeTimeout {
			t.Errorf("session closed after %v, before the %v write timeout", took, writeTimeout)
		}
		// One period late at most, plus scheduling slack.
		if limit := writeTimeout + period + 100*time.Millisecond; took > limit {
			t.Errorf("session closed after %v, want within %v (write timeout %v + one %v period + 100ms)", took, limit, writeTimeout, period)
		}

		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for kind, op := range requestOps {
			want := map[wire.Kind]int64{wire.KindGetRequest: 1, wire.KindPutRequest: 1}[kind]
			if got := srv.tel.reqSeconds[kind].Snapshot().Count; got != want {
				t.Errorf("speed_server_request_seconds{op=%q} count = %d, want %d", op.label, got, want)
			}
		}
		if v := srv.tel.inflight.Value(); v != 0 {
			t.Errorf("speed_server_inflight_requests = %d after Close, want 0", v)
		}
	})
}

// TestSessionDropMidPipeline: a client that hangs up with requests
// still in the pipeline — unread or unanswered — costs the server
// nothing it cannot unwind: Close returns promptly.
func TestSessionDropMidPipeline(t *testing.T) {
	srv, ch := startSession(t)
	sendPipeline(t, ch, 64)
	ch.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return after the client dropped mid-pipeline")
	}
}
