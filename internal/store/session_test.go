package store

import (
	"fmt"
	"testing"
	"time"

	"speed/internal/mle"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// One session's pipeline: GETs and HASes run on the session reader,
// PUTs in the worker pool, and each reply is written by the goroutine
// that produced it.

// startSession runs a telemetry-instrumented server with opts and opens
// one raw session to it, with a deadline so a wedged pipeline fails the
// test instead of hanging it.
func startSession(t *testing.T, opts ...ServerOption) (*Server, *wire.Channel) {
	t.Helper()
	opts = append([]ServerOption{WithTelemetry(telemetry.NewRegistry())}, opts...)
	srv, p, storeEnc := startRobustServer(t, opts...)
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ch := dialStore(t, srv.Addr().String(), appEnc, storeEnc.Measurement())
	if !ch.SetDeadline(time.Now().Add(10 * time.Second)) {
		t.Fatal("the session refused a deadline")
	}
	return srv, ch
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
// with its request's reply kind, whether the worker pool has the
// default 32 slots or one. Once the server is closed,
// speed_server_request_seconds holds one observation per request under
// its op label — the inline GET/HAS path and the pooled PUT path alike
// — and no request is left counted in flight.
func TestSessionPipeline(t *testing.T) {
	for _, inflight := range []int{maxInflight, 1} {
		t.Run(fmt.Sprint("pool=", inflight), func(t *testing.T) {
			srv, ch := startSession(t, func(s *Server) { s.maxInflight = inflight })
			const n = 64
			want, sent := sendPipeline(t, ch, n)
			for i := 0; i < n; i++ {
				payload, err := ch.Recv()
				if err != nil {
					t.Fatalf("reply %d of %d: %v", i+1, n, err)
				}
				id, _, msg, err := ch.ParseEnvelope(payload)
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
		})
	}
}

// TestSessionReplyWriteFails: when writing a reply fails, the request is
// still observed exactly once and leaves the in-flight gauge, on the
// inline path (GET) and the pooled path (PUT); the server closes the
// session rather than wedging the goroutine that tried to write.
func TestSessionReplyWriteFails(t *testing.T) {
	for _, req := range []wire.Message{
		wire.GetRequest{Tags: []mle.Tag{tagOf("k")}},
		wire.PutRequest{Items: []wire.PutItem{{Tag: tagOf("k"), Sealed: sealedOf("v")}}},
	} {
		t.Run(requestOps[req.Kind()].label, func(t *testing.T) {
			// A write deadline already past fails every reply write.
			srv, ch := startSession(t, func(s *Server) { s.writeTimeout = -time.Second })
			if err := ch.SendEnvelope(1, req); err != nil {
				t.Fatalf("send: %v", err)
			}
			if _, err := ch.Recv(); err == nil {
				t.Fatal("received a reply the server could not have written")
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for kind, op := range requestOps {
				want := int64(0)
				if kind == req.Kind() {
					want = 1
				}
				if got := srv.tel.reqSeconds[kind].Snapshot().Count; got != want {
					t.Errorf("speed_server_request_seconds{op=%q} count = %d, want %d", op.label, got, want)
				}
			}
			if v := srv.tel.inflight.Value(); v != 0 {
				t.Errorf("speed_server_inflight_requests = %d after Close, want 0", v)
			}
		})
	}
}

// TestSessionDropMidPipeline: a client that hangs up with requests
// still in the pipeline — PUTs in the pool, replies unwritten — costs
// the server nothing it cannot unwind: Close returns promptly.
func TestSessionDropMidPipeline(t *testing.T) {
	for _, inflight := range []int{maxInflight, 1} {
		t.Run(fmt.Sprint("pool=", inflight), func(t *testing.T) {
			srv, ch := startSession(t, func(s *Server) { s.maxInflight = inflight })
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
		})
	}
}
