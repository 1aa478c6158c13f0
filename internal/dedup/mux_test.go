package dedup

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// newMuxEnv is newRemoteEnv with an explicit store configuration (its
// enclave filled in here), server options and client configuration.
func newMuxEnv(t testing.TB, storeCfg store.Config, serverOpts []store.ServerOption, cfg RemoteConfig) *remoteEnv {
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
	storeCfg.Enclave = storeEnc
	st, err := store.New(storeCfg)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	opts := append([]store.ServerOption{store.WithLogf(func(string, ...any) {})}, serverOpts...)
	srv := store.NewServer(st, ln, opts...)
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

	client, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), cfg)
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return &remoteEnv{platform: p, appEnc: appEnc, storeEnc: storeEnc, store: st, client: client}
}

func TestMuxConcurrentCallersOneConnection(t *testing.T) {
	env := newMuxEnv(t, store.Config{}, nil, RemoteConfig{})
	const workers = 16
	const perWorker = 15
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tag := tagFromString(fmt.Sprintf("w%d-i%d", w, i))
				sealed := mle.Sealed{
					Challenge:  []byte("challenge"),
					WrappedKey: []byte("wrapped"),
					Blob:       []byte(fmt.Sprintf("blob-%d-%d", w, i)),
				}
				if err := putOne(env.client, tag, sealed, false); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, found, err := getOne(env.client, tag)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if !found || string(got.Blob) != string(sealed.Blob) {
					t.Errorf("Get w%d i%d = (found=%v, %q)", w, i, found, got.Blob)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// All round trips shared the one negotiated connection.
	if r := env.client.Reconnects(); r != 0 {
		t.Errorf("Reconnects = %d, want 0", r)
	}
	if n := env.client.inflight.Load(); n != 0 {
		t.Errorf("Inflight = %d after all calls returned, want 0", n)
	}
}

func tagFromString(s string) mle.Tag {
	var tag mle.Tag
	copy(tag[:], s)
	return tag
}

// rawHello hand-rolls the wire handshake's hello frame — attestation
// report plus quote over (X25519 public key, protocol version byte) —
// so a test can present versions this build would never send. With
// flipTo non-zero the hello is attested for version and the byte is
// then rewritten in the marshalled frame, as a network adversary would.
func rawHello(t *testing.T, enc *enclave.Enclave, target enclave.Measurement, version, flipTo byte) []byte {
	t.Helper()
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	pub := priv.PublicKey().Bytes()
	data := append(bytes.Clone(pub), version)
	quote, err := enc.Quote(data)
	if err != nil {
		t.Fatalf("quote: %v", err)
	}
	var frame []byte
	for _, part := range [][]byte{enc.Report(target, data).Marshal(), quote.Marshal()} {
		frame = binary.BigEndian.AppendUint32(frame, uint32(len(part)))
		frame = append(frame, part...)
	}
	if flipTo != 0 {
		flipped := 0
		for at := 0; ; flipped++ {
			i := bytes.Index(frame[at:], pub)
			if i < 0 {
				break
			}
			frame[at+i+len(pub)] = flipTo
			at += i + len(pub)
		}
		if flipped != 2 {
			t.Fatalf("version byte found %d times in the hello, want 2 (report and quote)", flipped)
		}
	}
	return frame
}

// TestProtocolVersionRefused is the whole version rule: a peer whose
// attested hello presents any byte but wire.ProtocolVersion — a peer
// predating the byte (0), older protocols (2; 3, which still served
// sync pulls), the previous one (4, which still served existence
// probes), a future one (6) — is refused inside
// the handshake by the server and by the client, before any dispatch;
// the client's error is not transient, so the retry schedule never
// spins on it; and rewriting the byte in flight breaks the attestation
// it is covered by.
func TestProtocolVersionRefused(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))

	for _, row := range []struct {
		name            string
		version, flipTo byte
		wantErr         error
		wantLog         string
	}{
		{"v0", 0, 0, wire.ErrPeerRejected, "protocol version 0"},
		{"v2", 2, 0, wire.ErrPeerRejected, "protocol version 2"},
		{"v3", 3, 0, wire.ErrPeerRejected, "protocol version 3"},
		{"v4", 4, 0, wire.ErrPeerRejected, "protocol version 4"},
		{"v6", 6, 0, wire.ErrPeerRejected, "protocol version 6"},
		{"downgraded in flight", wire.ProtocolVersion, 4, enclave.ErrAttestation, "attestation"},
	} {
		t.Run(row.name+"/server refuses", func(t *testing.T) {
			st, err := store.New(store.Config{Enclave: storeEnc})
			if err != nil {
				t.Fatalf("store.New: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			var logMu sync.Mutex
			var logged []string
			srv := store.NewServer(st, ln, store.WithLogf(func(format string, args ...any) {
				logMu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				logMu.Unlock()
			}))
			serveDone := make(chan struct{})
			go func() {
				defer close(serveDone)
				_ = srv.Serve()
			}()

			conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if err := wire.WriteFrame(conn, rawHello(t, appEnc, storeEnc.Measurement(), row.version, row.flipTo)); err != nil {
				t.Fatalf("send hello: %v", err)
			}
			if frame, err := wire.ReadFrameInto(conn, nil); err == nil {
				t.Fatalf("server answered the hello with %d bytes; want it to hang up", len(frame))
			}

			// Close waits for the handler, so the log is complete afterwards.
			_ = srv.Close()
			<-serveDone
			if len(logged) != 1 || !strings.Contains(logged[0], row.wantLog) ||
				!strings.Contains(logged[0], conn.LocalAddr().String()) {
				t.Errorf("server log = %q, want one line naming the peer and %q", logged, row.wantLog)
			}
			if s := st.Stats(); s.Gets != 0 || s.Puts != 0 {
				t.Errorf("refused session reached the store: gets=%d puts=%d", s.Gets, s.Puts)
			}
		})

		t.Run(row.name+"/client refuses", func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			defer ln.Close()
			hello := rawHello(t, storeEnc, appEnc.Measurement(), row.version, row.flipTo)
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						defer conn.Close()
						_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
						if _, err := wire.ReadFrameInto(conn, nil); err != nil {
							return
						}
						_ = wire.WriteFrame(conn, hello)
						_, _ = wire.ReadFrameInto(conn, nil) // hold the session until the client hangs up
					}()
				}
			}()

			cfg := fastRemoteConfig()
			if _, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), cfg); !errors.Is(err, row.wantErr) {
				t.Fatalf("eager DialConfig = %v, want %v", err, row.wantErr)
			}
			cfg.Lazy = true
			client, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), cfg)
			if err != nil {
				t.Fatalf("lazy DialConfig: %v", err)
			}
			defer client.Close()
			if _, _, err := getOne(client, testTag(1)); !errors.Is(err, row.wantErr) {
				t.Fatalf("Get = %v, want %v", err, row.wantErr)
			}
			if r := client.Retries(); r != 0 {
				t.Errorf("Retries = %d, want 0: a request's own dial is never resent", r)
			}
		})
	}
}

// TestOversizedRequestFailsAlone: a PUT whose one item cannot fit a
// frame is refused before a byte of it is written, so it is that
// request's error — not resent, not the connection's — and a caller
// sharing the mux never notices.
func TestOversizedRequestFailsAlone(t *testing.T) {
	// A request timeout far beyond the test: marshalling 64 MiB under the
	// race detector can stall the process long enough for a default
	// deadline to fire on a reply that is already there.
	env := newMuxEnv(t, store.Config{}, nil, RemoteConfig{RequestTimeout: 5 * time.Minute})
	if err := putOne(env.client, testTag(1), mle.Sealed{Blob: []byte("small")}, false); err != nil {
		t.Fatalf("Put: %v", err)
	}

	stop := make(chan struct{})
	neighbour := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				neighbour <- nil
				return
			default:
			}
			if _, found, err := getOne(env.client, testTag(1)); err != nil || !found {
				neighbour <- fmt.Errorf("concurrent Get = (found=%v, %v)", found, err)
				return
			}
		}
	}()

	huge := mle.Sealed{Blob: make([]byte, wire.MaxFrameSize)}
	err := putOne(env.client, testTag(2), huge, false)
	close(stop)
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Errorf("oversized Put = %v, want ErrFrameTooLarge", err)
	}
	if err := <-neighbour; err != nil {
		t.Errorf("the oversized request took a neighbour down: %v", err)
	}
	if r, rc := env.client.Retries(), env.client.Reconnects(); r != 0 || rc != 0 {
		t.Errorf("retries=%d reconnects=%d, want 0 and 0: the session was never at fault", r, rc)
	}
	if _, found, err := getOne(env.client, testTag(1)); err != nil || !found {
		t.Errorf("Get after the oversized Put = (found=%v, %v), want a hit on the same session", found, err)
	}
}

// hangServer completes the attested handshake and then reads frames
// without ever replying, simulating a wedged store.
func hangServer(t *testing.T, storeEnc *enclave.Enclave) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				ch, err := wire.ServerHandshake(conn, storeEnc, nil)
				if err != nil {
					conn.Close()
					return
				}
				for {
					if _, err := ch.Recv(); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return ln
}

func TestCloseUnblocksInflightWaiters(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))
	ln := hangServer(t, storeEnc)

	client, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), RemoteConfig{
		RequestTimeout: 30 * time.Second, // far beyond the test deadline
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i byte) {
			_, _, err := getOne(client, testTag(i))
			errs <- err
		}(byte(i))
	}
	waitFor(t, "requests to be in flight", func() bool { return client.inflight.Load() == 4 })

	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errClientClosed) {
				t.Errorf("in-flight Get after Close = %v, want errClientClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not unblock an in-flight waiter")
		}
	}

	// Idempotent, and subsequent requests fail fast with the same error.
	if err := client.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if _, _, err := getOne(client, testTag(0xFF)); !errors.Is(err, errClientClosed) {
		t.Errorf("Get after Close = %v, want errClientClosed", err)
	}
}

// TestRetryAccountingDeterministic pins the one re-dial: a request
// that breaks a connection set up before it re-dials once and resends,
// counted in Retries; a request that dialed its own connection is
// never resent; and only a failure the re-dial does not cure marks the
// client down.
func TestRetryAccountingDeterministic(t *testing.T) {
	env := newFaultEnv(t)
	cfg := fastRemoteConfig()
	cfg.ProbeInterval = time.Hour // keep the prober's dials out of the counts
	client, err := DialConfig(env.addr, env.appEnc, env.storeEnc.Measurement(), cfg)
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer client.Close()
	want := func(step string, retries, reconnects int64, healthy bool) {
		t.Helper()
		if r, rc, h := client.Retries(), client.Reconnects(), client.Healthy(); r != retries || rc != reconnects || h != healthy {
			t.Errorf("%s: retries=%d reconnects=%d healthy=%v, want %d, %d, %v", step, r, rc, h, retries, reconnects, healthy)
		}
		if n := client.inflight.Load(); n != 0 {
			t.Errorf("%s: Inflight = %d, want 0", step, n)
		}
	}
	get := func(step string, ok bool) {
		t.Helper()
		if _, _, err := getOne(client, testTag(1)); (err == nil) != ok {
			t.Fatalf("%s: Get = %v, want success %v", step, err, ok)
		}
	}

	// The store restarts under the connection: the re-dial cures it.
	env.stopServer()
	env.restartServer(t)
	get("store restarted", true)
	want("store restarted", 1, 1, true)

	// The store dies: the re-dial is refused, so the client goes down.
	env.stopServer()
	get("store dead", false)
	want("store dead", 2, 1, false)

	// No connection is left, so the next request dials its own and is
	// not resent when that dial fails.
	get("store still dead", false)
	want("store still dead", 2, 1, false)

	// A request's own dial succeeding brings the client back up.
	env.restartServer(t)
	get("store back", true)
	want("store back", 2, 2, true)
}

// reorderServer is a raw v2 peer that collects two requests and answers
// them in reverse arrival order, then answers a third with a bogus
// request ID first and a duplicate reply after — the client mux must
// correlate by ID, drop unknown IDs and tolerate duplicates.
func TestMuxCorrelatesOutOfOrderResponses(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			ch, err := wire.ServerHandshake(conn, storeEnc, nil)
			if err != nil {
				return err
			}
			type req struct {
				id  uint64
				tag mle.Tag
			}
			var reqs []req
			for len(reqs) < 2 {
				frame, err := ch.Recv()
				if err != nil {
					return err
				}
				id, _, msg, err := wire.UnmarshalEnvelope(frame)
				if err != nil {
					return err
				}
				gr, ok := msg.(wire.GetRequest)
				if !ok || len(gr.Tags) != 1 {
					return fmt.Errorf("unexpected %v", msg.Kind())
				}
				reqs = append(reqs, req{id, gr.Tags[0]})
			}
			// Answer in reverse order; each response's blob names its
			// request's tag so misrouting is detectable.
			for i := len(reqs) - 1; i >= 0; i-- {
				resp := wire.GetResponse{Results: []wire.GetResult{{Found: true, Sealed: mle.Sealed{
					Challenge:  []byte("challenge"),
					WrappedKey: []byte("wrapped"),
					Blob:       []byte{reqs[i].tag[0]},
				}}}}
				if err := ch.SendEnvelope(reqs[i].id, resp); err != nil {
					return err
				}
			}
			// Third request: send a reply under an unknown ID, a
			// duplicate of the real reply, then the real reply again
			// (which by then is itself an unknown ID and must be
			// dropped).
			frame, err := ch.Recv()
			if err != nil {
				return err
			}
			id, _, _, err := wire.UnmarshalEnvelope(frame)
			if err != nil {
				return err
			}
			bogus := wire.GetResponse{Results: []wire.GetResult{{Found: false}}}
			real := wire.GetResponse{Results: []wire.GetResult{{Found: true, Sealed: mle.Sealed{
				Challenge:  []byte("challenge"),
				WrappedKey: []byte("wrapped"),
				Blob:       []byte("third"),
			}}}}
			if err := ch.SendEnvelope(id^0xDEAD, bogus); err != nil {
				return err
			}
			if err := ch.SendEnvelope(id, real); err != nil {
				return err
			}
			if err := ch.SendEnvelope(id, bogus); err != nil {
				return err
			}
			// Hold the connection open until the client is done.
			_, _ = ch.Recv()
			return nil
		}()
	}()

	client, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), RemoteConfig{
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer client.Close()

	type result struct {
		tag    mle.Tag
		sealed mle.Sealed
		found  bool
		err    error
	}
	results := make(chan result, 2)
	launch := func(tag mle.Tag) {
		sealed, found, err := getOne(client, tag)
		results <- result{tag, sealed, found, err}
	}
	go launch(testTag(0x0A))
	waitFor(t, "first request in flight", func() bool { return client.inflight.Load() == 1 })
	go launch(testTag(0x0B))

	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("Get %x: %v", r.tag[0], r.err)
		}
		if !r.found || len(r.sealed.Blob) != 1 || r.sealed.Blob[0] != r.tag[0] {
			t.Errorf("Get %x routed wrong response (blob %x)", r.tag[0], r.sealed.Blob)
		}
	}

	sealed, found, err := getOne(client, testTag(0x0C))
	if err != nil {
		t.Fatalf("third Get: %v", err)
	}
	if !found || string(sealed.Blob) != "third" {
		t.Errorf("third Get = (found=%v, %q), want the real reply despite unknown/duplicate IDs", found, sealed.Blob)
	}
}

// tokenPeer is a raw store peer for the read-token tests. It answers a
// one-tag GET at once with a blob holding the tag's first byte, with two
// exceptions: a request for tag 'A' is held and answered right after the
// next request is, and a request for tag 'H' is never answered.
func tokenPeer(t *testing.T, storeEnc *enclave.Enclave) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	serve := func(ch *wire.Channel) error {
		reply := func(id uint64, b byte) error {
			return ch.SendEnvelope(id, wire.GetResponse{Results: []wire.GetResult{{Found: true, Sealed: mle.Sealed{
				Challenge:  []byte("challenge"),
				WrappedKey: []byte("wrapped"),
				Blob:       []byte{b},
			}}}})
		}
		var held []uint64
		for {
			frame, err := ch.Recv()
			if err != nil {
				return err
			}
			id, _, msg, err := wire.UnmarshalEnvelope(frame)
			if err != nil {
				return err
			}
			gr, ok := msg.(wire.GetRequest)
			if !ok || len(gr.Tags) != 1 {
				return fmt.Errorf("unexpected %v", msg.Kind())
			}
			switch b := gr.Tags[0][0]; b {
			case 'A':
				held = append(held, id)
			case 'H':
			default:
				if err := reply(id, b); err != nil {
					return err
				}
				for _, h := range held {
					if err := reply(h, 'A'); err != nil {
						return err
					}
				}
				held = nil
			}
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if ch, err := wire.ServerHandshake(conn, storeEnc, nil); err == nil {
					_ = serve(ch)
				}
			}()
		}
	}()
	return ln
}

// TestMuxReadTokenHandOver pins the mux's one reader at a time: the
// caller holding the read token delivers other callers' replies, hands
// the token on when its own arrives, and a timeout unblocks it.
func TestMuxReadTokenHandOver(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))
	ln := tokenPeer(t, storeEnc)
	client, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), RemoteConfig{
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer client.Close()
	client.mu.Lock()
	mux := client.mux
	client.mu.Unlock()
	tokenHeld := func() bool { return len(mux.token) == 0 }

	get := func(b byte) error {
		sealed, found, err := getOne(client, testTag(b))
		if err != nil {
			return fmt.Errorf("Get %c: %w", b, err)
		}
		if !found || !bytes.Equal(sealed.Blob, []byte{b}) {
			return fmt.Errorf("Get %c = (found=%v, %q), want its own reply", b, found, sealed.Blob)
		}
		return nil
	}

	// A takes the token and reads; the peer answers B first, so B's reply
	// reaches B through A's read loop, and A's own follows.
	errs := make(chan error, 2)
	go func() { errs <- get('A') }()
	waitFor(t, "A to hold the read token", func() bool { return client.inflight.Load() == 1 && tokenHeld() })
	go func() { errs <- get('B') }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	// A gave the token back: a later caller reads its own reply.
	if tokenHeld() {
		t.Error("read token still held with no request in flight")
	}
	if err := get('C'); err != nil {
		t.Error(err)
	}

	// A holder waiting in Recv for a reply that never comes is unblocked
	// by the watchdog, and so is the caller waiting behind it: both fail
	// with the deadline.
	holder := make(chan error, 1)
	go func() {
		_, err := mux.roundTrip(wire.GetRequest{Tags: []mle.Tag{testTag('H')}}, wire.TraceContext{})
		holder <- err
	}()
	waitFor(t, "a caller to hold the read token", tokenHeld)
	if _, err := mux.roundTrip(wire.GetRequest{Tags: []mle.Tag{testTag('H')}}, wire.TraceContext{}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("timed-out request = %v, want os.ErrDeadlineExceeded", err)
	}
	select {
	case err := <-holder:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("token holder = %v, want os.ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the timeout did not unblock the token holder")
	}

	// The next request finds the connection dead, re-dials once and is
	// served.
	if err := get('D'); err != nil {
		t.Error(err)
	}
	if r, rc := client.Retries(), client.Reconnects(); r != 1 || rc != 1 {
		t.Errorf("Retries = %d, Reconnects = %d, want 1 and 1", r, rc)
	}
}

// TestMuxDeadlineAfterReply: the mux's watchdog fails a request left
// unanswered past RequestTimeout no earlier than the timeout and within
// one watchdog period of it, while a request answered on the same mux
// in the meantime is unaffected: its reply reaches it, and it leaves
// nothing behind for a later firing to fail.
func TestMuxDeadlineAfterReply(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))
	ln := tokenPeer(t, storeEnc)
	const timeout = 800 * time.Millisecond
	client, err := DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(), RemoteConfig{RequestTimeout: timeout})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer client.Close()
	client.mu.Lock()
	mux := client.mux
	client.mu.Unlock()
	period := timeout / 8 // the mux's watchdog fires every eighth of its timeout
	get := func(b byte) error {
		_, err := mux.roundTrip(wire.GetRequest{Tags: []mle.Tag{testTag(b)}}, wire.TraceContext{})
		return err
	}
	pending := func() int {
		mux.mu.Lock()
		defer mux.mu.Unlock()
		return len(mux.pending)
	}

	// H is never answered and holds the read token; B's reply reaches B
	// through H's read loop.
	held := make(chan error, 1)
	sent := time.Now()
	go func() { held <- get('H') }()
	waitFor(t, "H to be in flight", func() bool { return pending() == 1 })
	if err := get('B'); err != nil {
		t.Fatalf("Get B: %v", err)
	}
	if mux.dead() || pending() != 1 {
		t.Fatalf("after B's reply: dead=%v, %d pending; want a healthy mux with H alone pending", mux.dead(), pending())
	}

	select {
	case err := <-held:
		took := time.Since(sent)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("unanswered H = %v, want os.ErrDeadlineExceeded", err)
		}
		if took < timeout {
			t.Errorf("H failed after %v, before its %v timeout", took, timeout)
		}
		// One period late at most, plus scheduling slack.
		if limit := timeout + period + 100*time.Millisecond; took > limit {
			t.Errorf("H failed after %v, want within %v (timeout %v + one %v period + 100ms)", took, limit, timeout, period)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the watchdog did not fail an unanswered request")
	}
	if !mux.dead() {
		t.Error("an unanswered request's timeout left the mux healthy")
	}
}
