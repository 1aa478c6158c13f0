package store

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/wire"
)

// startServer launches a Server on an ephemeral TCP port and registers
// cleanup.
func startServer(t *testing.T, s *Store, opts ...ServerOption) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	opts = append(opts, WithLogf(func(string, ...any) {}))
	srv := NewServer(s, ln, opts...)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve()
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		wg.Wait()
	})
	return srv
}

func dialStore(t *testing.T, addr string, app *enclave.Enclave, storeMeas enclave.Measurement) *wire.Channel {
	t.Helper()
	return dialStoreWithin(t, addr, app, storeMeas, 0)
}

// dialStoreWithin is dialStore with every read and write on the
// connection bounded by a deadline d from now, when d > 0, so a wedged
// server fails the test instead of hanging it.
func dialStoreWithin(t *testing.T, addr string, app *enclave.Enclave, storeMeas enclave.Measurement, d time.Duration) *wire.Channel {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if d > 0 {
		_ = conn.SetDeadline(time.Now().Add(d))
	}
	ch, err := wire.ClientHandshake(conn, app, storeMeas)
	if err != nil {
		conn.Close()
		t.Fatalf("ClientHandshake: %v", err)
	}
	t.Cleanup(func() { ch.Close() })
	return ch
}

// call is one request/reply exchange on a raw channel, one at a time:
// the request rides in an envelope and the reply must echo its ID.
func call(ch *wire.Channel, req wire.Message) (wire.Message, error) {
	const id = 7
	if err := ch.SendEnvelope(id, req); err != nil {
		return nil, err
	}
	payload, err := ch.Recv()
	if err != nil {
		return nil, err
	}
	gotID, _, msg, err := wire.UnmarshalEnvelope(payload)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("reply carries request ID %d, want %d", gotID, id)
	}
	ch.Detach()
	return msg, nil
}

// getOver is a GET of one tag on a raw channel; putOver a PUT of one
// item.
func getOver(ch *wire.Channel, tag mle.Tag) (wire.GetResult, error) {
	msg, err := call(ch, wire.GetRequest{Tags: []mle.Tag{tag}})
	if err != nil {
		return wire.GetResult{}, err
	}
	gr, ok := msg.(wire.GetResponse)
	if !ok || len(gr.Results) != 1 {
		return wire.GetResult{}, fmt.Errorf("reply = %#v, want a GetResponse of one result", msg)
	}
	return gr.Results[0], nil
}

func putOver(ch *wire.Channel, tag mle.Tag, sealed mle.Sealed) (wire.PutResult, error) {
	msg, err := call(ch, wire.PutRequest{Items: []wire.PutItem{{Tag: tag, Sealed: sealed}}})
	if err != nil {
		return wire.PutResult{}, err
	}
	pr, ok := msg.(wire.PutResponse)
	if !ok || len(pr.Results) != 1 {
		return wire.PutResult{}, fmt.Errorf("reply = %#v, want a PutResponse of one result", msg)
	}
	return pr.Results[0], nil
}

// logLines captures a server's log lines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// with returns the lines containing substr.
func (l *logLines) with(substr string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

// TestServerSlowRequestLine: a request slower than the WithSlowRequestLog
// threshold logs one line naming its op and its sampled trace ID, and
// a second slow request within slowLogGap logs nothing.
func TestServerSlowRequestLine(t *testing.T) {
	var log logLines
	srv, p, storeEnc := startRobustServer(t, WithLogf(log.logf), WithSlowRequestLog(time.Nanosecond))
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ch := dialStore(t, srv.Addr().String(), appEnc, storeEnc.Measurement())

	tc := wire.TraceContext{ID: wire.NewTraceID(), Parent: wire.NewSpanID(), Sampled: true}
	for i := 0; i < 2; i++ {
		start := time.Now()
		if err := ch.SendEnvelopeTrace(uint64(i), tc, wire.GetRequest{Tags: []mle.Tag{tagOf("t")}}); err != nil {
			t.Fatalf("send: %v", err)
		}
		if _, err := ch.Recv(); err != nil {
			t.Fatalf("recv: %v", err)
		}
		if i == 1 && time.Since(start) >= slowLogGap {
			t.Skip("the second request took longer than slowLogGap")
		}
	}
	lines := log.with("slow request")
	if len(lines) != 1 {
		t.Fatalf("slow-request lines = %q, want exactly one", lines)
	}
	for _, want := range []string{"op=store_get", "trace=" + tc.TraceIDHex()} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("slow-request line %q lacks %q", lines[0], want)
		}
	}
}

func TestServerGetPutOverTCP(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	s, err := New(Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := startServer(t, s)
	ch := dialStore(t, srv.Addr().String(), appEnc, storeEnc.Measurement())

	tag := tagOf("net-tag")

	// Miss.
	gr, err := getOver(ch, tag)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if gr.Found {
		t.Fatalf("reply = %#v, want not found", gr)
	}

	// Put.
	pr, err := putOver(ch, tag, sealedOf("net blob"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if !pr.OK {
		t.Fatalf("reply = %#v, want OK", pr)
	}

	// Hit.
	gr, err = getOver(ch, tag)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !gr.Found || string(gr.Sealed.Blob) != "net blob" {
		t.Fatalf("reply = %#v, want found with blob", gr)
	}
}

func TestServerQuotaRejectionOverTCP(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, _ := p.Create("store", []byte("store code"))
	appEnc, _ := p.Create("app", []byte("app code"))
	s, err := New(Config{Enclave: storeEnc, MaxBytesPerApp: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := startServer(t, s)
	ch := dialStore(t, srv.Addr().String(), appEnc, storeEnc.Measurement())

	pr, err := putOver(ch, tagOf("t"), sealedOf("way-over-quota"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if pr.OK {
		t.Fatalf("reply = %#v, want rejected", pr)
	}
	if pr.Err == "" {
		t.Error("rejected PutResponse carries no reason")
	}
}

func TestServerRejectsUnattestedClient(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, _ := p.Create("store", []byte("store code"))
	appEnc, _ := p.Create("app", []byte("app code"))
	s, err := New(Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	banned := appEnc.Measurement()
	srv := startServer(t, s, WithAcceptFunc(func(m enclave.Measurement) bool {
		return m != banned
	}))

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := wire.ClientHandshake(conn, appEnc, storeEnc.Measurement()); err == nil {
		t.Error("banned client completed handshake")
	}
}

func TestServerMultipleClients(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, _ := p.Create("store", []byte("store code"))
	s, err := New(Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := startServer(t, s)

	// App A stores a result; app B (different code, same computation)
	// retrieves it: cross-application deduplication over the network.
	appA, _ := p.Create("appA", []byte("app A code"))
	appB, _ := p.Create("appB", []byte("app B code"))
	chA := dialStore(t, srv.Addr().String(), appA, storeEnc.Measurement())
	chB := dialStore(t, srv.Addr().String(), appB, storeEnc.Measurement())

	tag := tagOf("shared")
	if _, err := putOver(chA, tag, sealedOf("shared blob")); err != nil {
		t.Fatalf("A put reply: %v", err)
	}

	gr, err := getOver(chB, tag)
	if err != nil {
		t.Fatalf("B get reply: %v", err)
	}
	if !gr.Found || string(gr.Sealed.Blob) != "shared blob" {
		t.Fatalf("B reply = %#v, want shared blob", gr)
	}
}

func TestDispatchRejectsUnexpectedMessage(t *testing.T) {
	s := testStore(t, Config{})
	srv := NewServer(s, nil, WithLogf(func(string, ...any) {}))
	if _, err := srv.dispatch(ownerOf("a"), wire.GetResponse{}); err == nil {
		t.Error("dispatch accepted a response message as a request")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := testStore(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := NewServer(s, ln, WithLogf(func(string, ...any) {}))
	done := make(chan struct{})
	go func() {
		_ = srv.Serve()
		close(done)
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	<-done
}

// mle import is used via sealedOf in store_test.go; keep the compiler
// honest about this file's own usage too.
var _ = mle.TagSize
