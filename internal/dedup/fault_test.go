package dedup

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// Fault-injection tests for the robustness layer: a stalled store, a
// store that dies mid-run, and a store that is down at startup must
// all leave Execute returning correct results with no errors, and
// deduplication must resume once the store is healthy again.

// faultEnv is a remote deployment whose server can be killed and
// restarted on the same address against the same backing store.
type faultEnv struct {
	platform *enclave.Platform
	appEnc   *enclave.Enclave
	storeEnc *enclave.Enclave
	store    *store.Store
	addr     string

	mu  sync.Mutex
	srv *store.Server
}

func newFaultEnv(t *testing.T) *faultEnv {
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
	env := &faultEnv{platform: p, appEnc: appEnc, storeEnc: storeEnc, store: st}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	env.addr = ln.Addr().String()
	env.startServer(t, ln)
	t.Cleanup(func() { env.stopServer() })
	return env
}

func (env *faultEnv) startServer(t *testing.T, ln net.Listener) {
	t.Helper()
	srv := store.NewServer(env.store, ln, store.WithLogf(func(string, ...any) {}))
	go func() { _ = srv.Serve() }()
	env.mu.Lock()
	env.srv = srv
	env.mu.Unlock()
}

func (env *faultEnv) stopServer() {
	env.mu.Lock()
	srv := env.srv
	env.srv = nil
	env.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// restartServer rebinds the original address, retrying briefly in case
// the kernel has not released it yet.
func (env *faultEnv) restartServer(t *testing.T) {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", env.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", env.addr, err)
	}
	env.startServer(t, ln)
}

// fastRemoteConfig keeps fault-path timeouts short so tests stay quick.
func fastRemoteConfig() RemoteConfig {
	return RemoteConfig{
		DialTimeout:    250 * time.Millisecond,
		RequestTimeout: 250 * time.Millisecond,
		MaxRetries:     1,
		RetryBackoff:   5 * time.Millisecond,
	}
}

func newFaultRuntime(t *testing.T, env *faultEnv, client StoreClient) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{
		Enclave:          env.appEnc,
		Client:           client,
		DegradeThreshold: 2,
		ProbeInterval:    25 * time.Millisecond,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	return rt
}

func TestExecuteSurvivesStoreOutageAndRecovers(t *testing.T) {
	env := newFaultEnv(t)
	client, err := DialConfig(env.addr, env.appEnc, env.storeEnc.Measurement(), fastRemoteConfig())
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	rt := newFaultRuntime(t, env, client)
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	compute := func(in []byte) ([]byte, error) { return append([]byte("out:"), in...), nil }

	// Healthy phase: compute + upload, then a dedup hit.
	seed := []byte("outage seed")
	if _, out, err := rt.Execute(id, seed, compute); err != nil || out != OutcomeComputed {
		t.Fatalf("healthy Execute = (%v, %v), want computed", out, err)
	}
	if _, out, err := rt.Execute(id, seed, compute); err != nil || out != OutcomeReused {
		t.Fatalf("healthy Execute 2 = (%v, %v), want reused", out, err)
	}

	// Kill the store mid-run. Concurrent callers must all still get
	// correct results, compute-only, with zero errors.
	env.stopServer()
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				in := []byte(fmt.Sprintf("outage-%d-%d", w, i))
				res, out, err := rt.Execute(id, in, compute)
				if err != nil {
					errCh <- fmt.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if out != OutcomeComputed && out != OutcomeCoalesced {
					errCh <- fmt.Errorf("worker %d call %d: outcome %v", w, i, out)
					return
				}
				if want := append([]byte("out:"), in...); !bytes.Equal(res, want) {
					errCh <- fmt.Errorf("worker %d call %d: result %q", w, i, res)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if s := rt.Stats(); s.Degraded == 0 {
		t.Errorf("Stats.Degraded = 0 after outage, want > 0 (stats: %+v)", s)
	}

	// Restart the store on the same address: the background probe must
	// close the breaker and dedup hits must resume (the seed entry
	// survived in the store).
	env.restartServer(t)
	waitFor(t, "breaker to close after store restart", func() bool { return !rt.Degraded() })
	res, out, err := rt.Execute(id, seed, func([]byte) ([]byte, error) {
		return nil, fmt.Errorf("recomputed despite stored result")
	})
	if err != nil {
		t.Fatalf("post-recovery Execute: %v", err)
	}
	if out != OutcomeReused {
		t.Errorf("post-recovery outcome = %v, want reused", out)
	}
	if want := append([]byte("out:"), seed...); !bytes.Equal(res, want) {
		t.Errorf("post-recovery result = %q, want %q", res, want)
	}
	if s := rt.Stats(); s.StoreFailures == 0 {
		t.Errorf("Stats.StoreFailures = 0 after outage, want > 0")
	}
}

// TestExecuteDegradesWhenStoreStalls runs against a store that
// handshakes correctly but never answers requests: the per-request
// deadline must bound the call and degrade it to compute-only.
func TestExecuteDegradesWhenStoreStalls(t *testing.T) {
	env := newFaultEnv(t)
	env.stopServer()

	// A stalling impostor on a fresh port: accepts, handshakes, reads
	// requests, never replies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				ch, err := wire.ServerHandshake(c, env.storeEnc, nil)
				if err != nil {
					return
				}
				for {
					if _, err := ch.Recv(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	client, err := DialConfig(ln.Addr().String(), env.appEnc, env.storeEnc.Measurement(), fastRemoteConfig())
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	rt := newFaultRuntime(t, env, client)
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}

	start := time.Now()
	in := []byte("stall input")
	res, out, err := rt.Execute(id, in, func(in []byte) ([]byte, error) {
		return append([]byte("out:"), in...), nil
	})
	if err != nil {
		t.Fatalf("Execute against stalled store: %v", err)
	}
	if out != OutcomeComputed {
		t.Errorf("outcome = %v, want computed", out)
	}
	if want := append([]byte("out:"), in...); !bytes.Equal(res, want) {
		t.Errorf("result = %q, want %q", res, want)
	}
	// One attempt + one retry at 250ms each plus backoff: well under 5s,
	// and crucially not forever (the pre-deadline behaviour).
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Execute took %v against a stalled store", elapsed)
	}
	s := rt.Stats()
	if s.Degraded == 0 {
		t.Errorf("Stats.Degraded = 0, want > 0")
	}
	if s.Retries == 0 {
		t.Errorf("Stats.Retries = 0, want > 0 (timeout should have been retried)")
	}
}

// TestLazyDialStoreDownAtStartup starts the application before the
// store exists: calls are served compute-only, and once the store
// comes up deduplication kicks in.
func TestLazyDialStoreDownAtStartup(t *testing.T) {
	env := newFaultEnv(t)
	env.stopServer()

	cfg := fastRemoteConfig()
	cfg.Lazy = true
	client, err := DialConfig(env.addr, env.appEnc, env.storeEnc.Measurement(), cfg)
	if err != nil {
		t.Fatalf("DialConfig lazy with store down: %v", err)
	}
	rt := newFaultRuntime(t, env, client)
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	compute := func(in []byte) ([]byte, error) { return append([]byte("out:"), in...), nil }

	in := []byte("startup input")
	if _, out, err := rt.Execute(id, in, compute); err != nil || out != OutcomeComputed {
		t.Fatalf("Execute with store down = (%v, %v), want computed", out, err)
	}
	if s := rt.Stats(); s.Degraded == 0 {
		t.Fatalf("Stats.Degraded = 0 with store down at startup")
	}

	env.restartServer(t)
	waitFor(t, "breaker to close after store came up", func() bool { return !rt.Degraded() })

	// First call after recovery misses and uploads; the second reuses.
	if _, out, err := rt.Execute(id, in, compute); err != nil || out != OutcomeComputed {
		t.Fatalf("Execute after store up = (%v, %v), want computed", out, err)
	}
	if _, out, err := rt.Execute(id, in, compute); err != nil || out != OutcomeReused {
		t.Fatalf("Execute after store up 2 = (%v, %v), want reused", out, err)
	}
}

// TestRemoteClientRetriesRateLimitedPut drives the store's token
// bucket dry and checks the client transparently backs off and
// retries the rejected PUT.
func TestRemoteClientRetriesRateLimitedPut(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))
	st, err := store.New(store.Config{
		Enclave: storeEnc,
		Quota:   store.QuotaConfig{PutRatePerSec: 20, PutBurst: 1},
	})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := store.NewServer(st, ln, store.WithLogf(func(string, ...any) {}))
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })

	client, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), RemoteConfig{
		MaxRetries:      5,
		RetryBackoff:    30 * time.Millisecond,
		RetryMaxBackoff: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })

	if err := putOne(client, testTag(1), mle.Sealed{Blob: []byte("a")}, false); err != nil {
		t.Fatalf("Put 1: %v", err)
	}
	// The burst token is spent; this PUT is rejected by the rate
	// limiter until the bucket refills (~50ms at 20/s) — the retry
	// schedule covers that comfortably.
	if err := putOne(client, testTag(2), mle.Sealed{Blob: []byte("b")}, false); err != nil {
		t.Fatalf("Put 2 (rate limited) not retried to success: %v", err)
	}
	if client.Retries() == 0 {
		t.Error("client.Retries() = 0, want > 0 for the rate-limited PUT")
	}
}
