package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/wire"
)

// Robustness of the networked store against misbehaving peers: the
// server must shed garbage, oversized frames and half-open connections
// without crashing or wedging, and keep serving honest clients.

// startRobustServer runs a server over a volatile store; it logs
// nothing unless opts set a logger.
func startRobustServer(t *testing.T, opts ...ServerOption) (*Server, *enclave.Platform, *enclave.Enclave) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("create store enclave: %v", err)
	}
	st, err := New(Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := NewServer(st, ln, append([]ServerOption{WithLogf(func(string, ...any) {})}, opts...)...)
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
	return srv, p, storeEnc
}

func TestServerShedsGarbageConnections(t *testing.T) {
	srv, p, storeEnc := startRobustServer(t)

	attacks := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),                 // wrong protocol
		{0xFF, 0xFF, 0xFF, 0xFF},                         // oversized frame header
		{0x00, 0x00, 0x00, 0x04, 0xDE, 0xAD, 0xBE, 0xEF}, // garbage report
		{}, // immediate close
	}
	for i, payload := range attacks {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatalf("attack %d dial: %v", i, err)
		}
		if len(payload) > 0 {
			_, _ = conn.Write(payload)
		}
		conn.Close()
	}

	// A half-open connection: handshake never completes. The server
	// must still serve an honest client concurrently.
	half, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("half-open dial: %v", err)
	}
	defer half.Close()

	appEnc, err := p.Create("honest", []byte("honest code"))
	if err != nil {
		t.Fatalf("create honest: %v", err)
	}
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("honest dial: %v", err)
	}
	defer conn.Close()
	ch, err := wire.ClientHandshake(conn, appEnc, storeEnc.Measurement())
	if err != nil {
		t.Fatalf("honest handshake after attacks: %v", err)
	}
	pr, err := putOver(ch, tagOf("t"), sealedOf("ok"))
	if err != nil {
		t.Fatalf("honest reply: %v", err)
	}
	if !pr.OK {
		t.Fatalf("honest reply = %#v", pr)
	}
}

// TestServerHandshakeDeadline: a peer that connects and never says hello
// is disconnected once the handshake deadline passes, and the server
// keeps serving the next client.
func TestServerHandshakeDeadline(t *testing.T) {
	var log logLines
	srv, p, storeEnc := startRobustServer(t, WithLogf(log.logf), func(s *Server) { s.handshakeTimeout = 50 * time.Millisecond })

	silent, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer silent.Close()
	_ = silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent peer's Read = %v, want EOF: the server should hang up at its handshake deadline", err)
	}
	if lines := log.with("i/o timeout"); len(lines) != 1 || !strings.Contains(lines[0], "store: handshake from") {
		t.Errorf("log lines naming the timeout = %q, want one handshake line", lines)
	}

	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ch := dialStore(t, srv.Addr().String(), appEnc, storeEnc.Measurement())
	if pr, err := putOver(ch, tagOf("after"), sealedOf("v")); err != nil || !pr.OK {
		t.Fatalf("PUT after the silent peer = %+v, %v", pr, err)
	}
}

// TestServerIdleDeadline: a client that completes the handshake and
// then sends nothing is hung up once the idle deadline passes, quietly,
// and the server keeps serving the next client.
func TestServerIdleDeadline(t *testing.T) {
	var log logLines
	srv, p, storeEnc := startRobustServer(t, WithLogf(log.logf), func(s *Server) { s.idleTimeout = 50 * time.Millisecond })
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	silent := dialStore(t, srv.Addr().String(), appEnc, storeEnc.Measurement())
	if !silent.SetDeadline(time.Now().Add(5 * time.Second)) {
		t.Fatal("SetDeadline failed")
	}
	if _, err := silent.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("silent client's Recv = %v, want EOF: the server should hang up at its idle deadline", err)
	}
	if lines := log.with("recv from"); len(lines) != 0 {
		t.Errorf("idle hang-up logged %q, want nothing", lines)
	}

	ch := dialStore(t, srv.Addr().String(), appEnc, storeEnc.Measurement())
	if pr, err := putOver(ch, tagOf("after"), sealedOf("v")); err != nil || !pr.OK {
		t.Fatalf("PUT after the idle client = %+v, %v", pr, err)
	}
}

func TestServerRejectsPostHandshakeGarbage(t *testing.T) {
	srv, p, storeEnc := startRobustServer(t)
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("create app: %v", err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	ch, err := wire.ClientHandshake(conn, appEnc, storeEnc.Measurement())
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	// A syntactically valid frame whose ciphertext is garbage: the
	// server drops the session; the client sees EOF/reset on the next
	// read rather than a hang.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 16)
	_, _ = conn.Write(hdr[:])
	_, _ = conn.Write(bytes.Repeat([]byte{0xAA}, 16))

	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ch.Recv(); err == nil {
		t.Error("server kept talking after garbage ciphertext")
	}
}

func TestServerManyConcurrentClients(t *testing.T) {
	srv, p, storeEnc := startRobustServer(t)
	const clients = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			appEnc, err := p.Create(string(rune('a'+c))+"-app", []byte{byte(c)})
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			ch, err := wire.ClientHandshake(conn, appEnc, storeEnc.Measurement())
			if err != nil {
				t.Errorf("handshake: %v", err)
				return
			}
			for i := 0; i < 20; i++ {
				tag := tagOf(string(rune('a'+c)) + string(rune(i)))
				if _, err := putOver(ch, tag, sealedOf("v")); err != nil {
					t.Errorf("put reply: %v", err)
					return
				}
				gr, err := getOver(ch, tag)
				if err != nil {
					t.Errorf("get reply: %v", err)
					return
				}
				if !gr.Found {
					t.Errorf("get reply = %#v", gr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
