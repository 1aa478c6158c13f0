package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// remoteEnv runs a real store server on localhost and a RemoteClient
// connected to it.
type remoteEnv struct {
	platform *enclave.Platform
	appEnc   *enclave.Enclave
	storeEnc *enclave.Enclave
	store    *store.Store
	client   *RemoteClient
}

func newRemoteEnv(t *testing.T) *remoteEnv {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("create app: %v", err)
	}
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("create store: %v", err)
	}
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := store.NewServer(st, ln, store.WithLogf(func(string, ...any) {}))
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

	client, err := Dial(ln.Addr().String(), appEnc, storeEnc.Measurement())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return &remoteEnv{platform: p, appEnc: appEnc, storeEnc: storeEnc, store: st, client: client}
}

func testTag(b byte) mle.Tag {
	var tag mle.Tag
	for i := range tag {
		tag[i] = b
	}
	return tag
}

// getOne and putOne give tests the single-call shape; the client types
// themselves are batch-only. putOne reports a rejection the way the
// runtime does, as ErrPutRejected.
func getOne(c StoreClient, tag mle.Tag) (mle.Sealed, bool, error) {
	res, err := c.Get(wire.TraceContext{}, []mle.Tag{tag}, nil)
	if err != nil {
		return mle.Sealed{}, false, err
	}
	return res[0].Sealed, res[0].Found, nil
}

func putOne(c StoreClient, tag mle.Tag, sealed mle.Sealed, replace bool) error {
	res, err := c.Put(wire.TraceContext{}, []wire.PutItem{{Tag: tag, Sealed: sealed, Replace: replace}})
	if err != nil {
		return err
	}
	if !res[0].OK {
		return fmt.Errorf("%w: %s", ErrPutRejected, res[0].Err)
	}
	return nil
}

func TestRemoteClientPutRejected(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))
	st, err := store.New(store.Config{
		Enclave:        storeEnc,
		MaxBytesPerApp: 1,
	})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := store.NewServer(st, ln, store.WithLogf(func(string, ...any) {}))
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

	client, err := Dial(ln.Addr().String(), appEnc, storeEnc.Measurement())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	err = putOne(client, testTag(1), mle.Sealed{Blob: []byte("too big for quota")}, false)
	if !errors.Is(err, ErrPutRejected) {
		t.Errorf("Put = %v, want ErrPutRejected", err)
	}
}

// TestDialDeadline: a store that accepts the connection and never says
// hello costs DialConfig its DialTimeout, then an error, never a wedged
// caller. The client-side twin of TestServerHandshakeDeadline.
func TestDialDeadline(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()

	const timeout = 50 * time.Millisecond
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		c, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), RemoteConfig{DialTimeout: timeout})
		if err == nil {
			c.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("DialConfig against a silent store = %v, want a deadline error", err)
		}
		if took := time.Since(start); took > timeout+time.Second {
			t.Errorf("DialConfig took %v, want within DialTimeout %v plus 1s", took, timeout)
		}
		(<-accepted).Close()
	case <-time.After(5 * time.Second):
		(<-accepted).Close() // unblocks the handshake's read
		<-done
		t.Fatalf("DialConfig still waiting 5s into a %v DialTimeout: the handshake has no deadline", timeout)
	}
}

func TestRemoteClientConcurrent(t *testing.T) {
	env := newRemoteEnv(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tag := testTag(byte(i))
				if err := putOne(env.client, tag, mle.Sealed{Blob: []byte{byte(i)}}, false); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := getOne(env.client, tag); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// End-to-end: a runtime over the networked client behaves exactly like
// the local deployment.
func TestRuntimeOverRemoteClient(t *testing.T) {
	env := newRemoteEnv(t)
	rt, err := NewRuntime(Config{
		Enclave: env.appEnc,
		Client:  env.client,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Close()
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}

	input := []byte("network input")
	res1, out1, err := rt.Execute(id, input, func(in []byte) ([]byte, error) {
		return append([]byte("net:"), in...), nil
	})
	if err != nil {
		t.Fatalf("Execute 1: %v", err)
	}
	if out1 != OutcomeComputed {
		t.Errorf("outcome 1 = %v, want computed", out1)
	}
	res2, out2, err := rt.Execute(id, input, func([]byte) ([]byte, error) {
		t.Error("recomputed over network despite stored result")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Execute 2: %v", err)
	}
	if out2 != OutcomeReused || !bytes.Equal(res1, res2) {
		t.Errorf("Execute 2 = (%q, %v), want reused %q", res2, out2, res1)
	}
}

func TestLocalClientCloseNoOp(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, _ := p.Create("store", []byte("store code"))
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	c := NewLocalClient(st, enclave.Measurement{})
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	// The store must remain usable after client close.
	if _, _, err := st.Get(testTag(1)); err != nil {
		t.Errorf("store Get after client Close: %v", err)
	}
}

// TestClientSeriesSumOverSharedRegistry: clients of one application
// that share a registry, as a cluster's members do, add up in its
// speed_client_* series; none of them is counted alone.
func TestClientSeriesSumOverSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	for i := 0; i < 2; i++ {
		env := newMuxEnv(t, store.Config{}, nil, RemoteConfig{Telemetry: reg, Lazy: true})
		if _, err := env.client.Get(wire.TraceContext{}, []mle.Tag{{1}}, nil); err != nil { // dials
			t.Fatal(err)
		}
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == `speed_client_reconnects_total{app="app"}` {
			if c.Value != 2 {
				t.Errorf("%s = %d after two clients dialed, want 2", c.Name, c.Value)
			}
			return
		}
	}
	t.Error("speed_client_reconnects_total{app=\"app\"} is not registered")
}
