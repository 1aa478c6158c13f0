package store

import (
	"net"
	"sync"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/wire"
)

// tempAcceptErr mimics a transient accept failure such as EMFILE.
type tempAcceptErr struct{}

func (tempAcceptErr) Error() string   { return "accept: too many open files" }
func (tempAcceptErr) Temporary() bool { return true }
func (tempAcceptErr) Timeout() bool   { return false }

// flakyListener fails the first N Accept calls with a temporary error
// before delegating to the real listener.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, tempAcceptErr{}
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestServeRetriesTemporaryAcceptErrors: transient accept failures
// (e.g. fd exhaustion) must not kill the server; it backs off and
// keeps serving honest clients.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("create store enclave: %v", err)
	}
	st, err := New(Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	real, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	flaky := &flakyListener{Listener: real, fails: 3}
	srv := NewServer(st, flaky, WithLogf(func(string, ...any) {}))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	t.Cleanup(func() {
		_ = srv.Close()
		<-serveErr
	})

	// Despite the three failed accepts, a client connecting afterwards
	// must be served.
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("create app enclave: %v", err)
	}
	conn, err := net.DialTimeout("tcp", real.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	ch, err := wire.ClientHandshake(conn, appEnc, storeEnc.Measurement())
	if err != nil {
		t.Fatalf("handshake after temporary accept errors: %v", err)
	}
	pr, err := putOver(ch, tagOf("t"), sealedOf("v"))
	if err != nil {
		t.Fatalf("put reply: %v", err)
	}
	if !pr.OK {
		t.Fatalf("put reply = %#v", pr)
	}

	// Serve must still be running (the temporary errors were retried,
	// not returned).
	select {
	case err := <-serveErr:
		t.Fatalf("Serve returned early: %v", err)
	default:
	}
	flaky.mu.Lock()
	remaining := flaky.fails
	flaky.mu.Unlock()
	if remaining != 0 {
		t.Errorf("flaky listener still has %d pending failures; accept loop never consumed them", remaining)
	}
}
