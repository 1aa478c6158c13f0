package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// Fault-injection tests for store failure handling: a stalled store, a
// store that dies mid-run, and a store that is down at startup must
// all leave Execute returning correct results with no errors, within
// the bounds DESIGN.md "Store failure handling" states, and
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
		ProbeInterval:  25 * time.Millisecond,
	}
}

// degradeBound is the longest one call waits on a store that died or
// stalled under an established connection: its attempt, one re-dial and
// the resend. Later calls skip the store.
func degradeBound(cfg RemoteConfig) time.Duration {
	return 2*cfg.RequestTimeout + cfg.DialTimeout
}

// recoverBound is the longest the client stays down once the store
// answers again: a probe already in flight may fail, the next tick
// follows within ProbeInterval, and its ping succeeds.
func recoverBound(cfg RemoteConfig) time.Duration {
	return cfg.ProbeInterval + 2*(cfg.DialTimeout+cfg.RequestTimeout)
}

func newFaultRuntime(t *testing.T, env *faultEnv, client StoreClient) *Runtime {
	t.Helper()
	rt, err := NewRuntime(Config{
		Enclave: env.appEnc,
		Client:  client,
		Logf:    func(string, ...any) {},
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

	if !rt.Degraded() || client.Healthy() {
		t.Fatal("the failed calls left the client healthy")
	}

	// Restart the store on the same address: the client's prober must
	// mark it up within the stated bound, and dedup hits must resume
	// (the seed entry survived in the store).
	env.restartServer(t)
	restarted := time.Now()
	waitFor(t, "the prober to mark the store up after its restart", func() bool { return !rt.Degraded() })
	if took, bound := time.Since(restarted), recoverBound(fastRemoteConfig()); took > bound {
		t.Errorf("recovered %v after the restart, want within ProbeInterval + 2(DialTimeout + RequestTimeout) = %v", took, bound)
	}
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
// handshakes correctly but never answers requests: the first call is
// served compute-only within 2·RequestTimeout + DialTimeout (its
// attempt, one re-dial, the resend), which marks the client down, and
// the next call skips the store without waiting at all.
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
	var (
		res  []byte
		out  Outcome
		done = make(chan error, 1)
	)
	go func() {
		var err error
		res, out, err = rt.Execute(id, in, func(in []byte) ([]byte, error) {
			return append([]byte("out:"), in...), nil
		})
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * degradeBound(fastRemoteConfig())):
		client.Close() // fails the mux, which unblocks the wedged call
		<-done
		t.Fatal("Execute still waiting on a stalled store at 10× its bound: no request timer fired")
	}
	if err != nil {
		t.Fatalf("Execute against stalled store: %v", err)
	}
	if out != OutcomeComputed {
		t.Errorf("outcome = %v, want computed", out)
	}
	if want := append([]byte("out:"), in...); !bytes.Equal(res, want) {
		t.Errorf("result = %q, want %q", res, want)
	}
	if took, bound := time.Since(start), degradeBound(fastRemoteConfig()); took > bound {
		t.Errorf("Execute took %v against a stalled store, want within 2·RequestTimeout + DialTimeout = %v", took, bound)
	}
	if !rt.Degraded() {
		t.Fatal("a call that timed out twice left the runtime undegraded")
	}
	start = time.Now()
	if _, out, err := rt.Execute(id, []byte("stall input 2"), func(in []byte) ([]byte, error) {
		return append([]byte("out:"), in...), nil
	}); err != nil || out != OutcomeComputed {
		t.Fatalf("degraded Execute = (%v, %v), want computed", out, err)
	}
	if took := time.Since(start); took >= fastRemoteConfig().RequestTimeout {
		t.Errorf("a degraded call took %v: it waited on the store", took)
	}
	s := rt.Stats()
	if s.Degraded != 2 || s.StoreFailures != 1 {
		t.Errorf("Stats.Degraded = %d, StoreFailures = %d; want 2 and 1: only the first call asked the store", s.Degraded, s.StoreFailures)
	}
	if s.Retries != 1 {
		t.Errorf("Stats.Retries = %d, want 1: the timed-out request is resent once, after the re-dial", s.Retries)
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
	waitFor(t, "the prober to mark the store up", func() bool { return !rt.Degraded() })

	// First call after recovery misses and uploads; the second reuses.
	if _, out, err := rt.Execute(id, in, compute); err != nil || out != OutcomeComputed {
		t.Fatalf("Execute after store up = (%v, %v), want computed", out, err)
	}
	if _, out, err := rt.Execute(id, in, compute); err != nil || out != OutcomeReused {
		t.Fatalf("Execute after store up 2 = (%v, %v), want reused", out, err)
	}
}

// TestRemoteClientRateLimitedPutNotRetried runs an application past
// its space quota, the paper's rate-limiting strategy against PUT
// flooding (Section III-D): the refused PUT is a rejected item,
// answered at once and counted in PutErrors. It is never slept on or
// resent, so the caller's PUT OCALL is not stalled learning what the
// store already said.
func TestRemoteClientRateLimitedPutNotRetried(t *testing.T) {
	env := newMuxEnv(t, store.Config{MaxBytesPerApp: 64}, nil, RemoteConfig{})
	rt, err := NewRuntime(Config{Enclave: env.appEnc, Client: env.client, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	compute := func(in []byte) ([]byte, error) { return append([]byte("out:"), in...), nil }

	if _, out, err := rt.Execute(id, []byte("first"), compute); err != nil || out != OutcomeComputed {
		t.Fatalf("first Execute = (%v, %v), want computed", out, err)
	}
	if s := rt.Stats(); s.PutErrors != 0 {
		t.Fatalf("the quota did not admit the first PUT (PutErrors = %d)", s.PutErrors)
	}
	// This result alone is past the 64-byte quota: its PUT is refused.
	start := time.Now()
	if _, out, err := rt.Execute(id, bytes.Repeat([]byte("second"), 16), compute); err != nil || out != OutcomeComputed {
		t.Fatalf("over-quota Execute = (%v, %v), want computed", out, err)
	}
	if took := time.Since(start); took >= 25*time.Millisecond {
		t.Errorf("the over-quota call took %v, want well under 25ms: nothing sleeps on a rejection", took)
	}
	if s := rt.Stats(); s.PutErrors != 1 || s.Retries != 0 || s.StoreFailures != 0 {
		t.Errorf("PutErrors = %d, Retries = %d, StoreFailures = %d; want 1, 0, 0", s.PutErrors, s.Retries, s.StoreFailures)
	}
	if !env.client.Healthy() {
		t.Error("a rejection marked the client down; the store answered")
	}
	err = putOne(env.client, testTag(9), mle.Sealed{Blob: make([]byte, 64)}, false)
	if !errors.Is(err, ErrPutRejected) || !strings.Contains(err.Error(), "cache space quota") {
		t.Errorf("direct Put = %v, want the store's space-quota rejection", err)
	}
}

// TestCloseStopsProber: Close runs while the store is down, the prober
// is running and calls keep failing on other goroutines. Failed calls
// start the prober under the mutex that guards closed, so none can
// start one after Close has begun waiting for it (-race reports a
// WaitGroup.Add that Close's Wait does not order). Once Close returns
// no prober goroutine is left and no probe or call reaches the store.
func TestCloseStopsProber(t *testing.T) {
	// The store is down: a listener that accepts, counts and hangs up,
	// so every dial fails its handshake.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	var dials atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			conn.Close()
		}
	}()
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))
	client, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), RemoteConfig{
		Lazy:          true,
		DialTimeout:   time.Second,
		ProbeInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}

	stop := make(chan struct{})
	var callers sync.WaitGroup
	for i := 0; i < 4; i++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := getOne(client, testTag(byte(i))); err == nil {
					t.Error("a Get succeeded against a store that is down")
					return
				}
			}
		}()
	}
	waitFor(t, "the prober to start", func() bool {
		client.mu.Lock()
		defer client.mu.Unlock()
		return client.probing
	})
	waitFor(t, "a probe to be sent", func() bool { return dials.Load() > 8 })
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	after := dials.Load()
	if n := goroutinesIn(fmt.Sprintf("(*RemoteClient).probe(%p", client)); n != 0 {
		t.Errorf("%d prober goroutines still running after Close", n)
	}
	time.Sleep(20 * time.Millisecond) // twenty probe intervals
	close(stop)
	callers.Wait()
	if got := dials.Load(); got != after {
		t.Errorf("%d dials reached the store after Close returned", got-after)
	}
	if client.Healthy() {
		t.Error("Healthy after Close")
	}
}

// goroutinesIn counts the live goroutines whose stack holds frame.
func goroutinesIn(frame string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), frame)
}
