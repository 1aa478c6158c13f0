package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
)

func mustTag(b byte) mle.Tag {
	var t mle.Tag
	for i := range t {
		t[i] = b
	}
	return t
}

func TestMessageRoundTrips(t *testing.T) {
	sealed := mle.Sealed{
		Challenge:  []byte("rrrrrrrrrrrrrrrr"),
		WrappedKey: []byte("kkkkkkkkkkkkkkkk"),
		Blob:       []byte("ciphertext blob bytes"),
	}
	msgs := []Message{
		GetRequest{Tags: []mle.Tag{mustTag(0xAB)}},
		GetResponse{Results: []GetResult{{Found: false}}},
		GetResponse{Results: []GetResult{{Found: true, Sealed: sealed}}},
		PutRequest{Items: []PutItem{{Tag: mustTag(0x01), Sealed: sealed}}},
		PutResponse{Results: []PutResult{{OK: true}}},
		PutResponse{Results: []PutResult{{OK: false, Err: "quota exceeded"}}},
	}
	for _, m := range msgs {
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Errorf("%v: Unmarshal: %v", m.Kind(), err)
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v: round trip = %#v, want %#v", m.Kind(), got, m)
		}
	}
}

// The sync pull pair of protocol version 3, as that version encoded
// them: kind 7 asking for at most 10 entries with at least 2 hits, and
// an empty kind-8 reply. Both decoded then; both are unknown kinds now.
var (
	retiredSyncPullRequest  = []byte{7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 10}
	retiredSyncPullResponse = []byte{8}
)

func TestUnmarshalRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{0xEE, 1, 2, 3}},
		{"retired kind 7", retiredSyncPullRequest},
		{"retired kind 8", retiredSyncPullResponse},
		{"short get request", []byte{byte(KindGetRequest), 1, 2}},
		{"get response missing sealed", []byte{byte(KindGetResponse), 1}},
		{"get response bad bool", []byte{byte(KindGetResponse), 7}},
		{"put request short tag", []byte{byte(KindPutRequest), 1, 2, 3}},
		{"put response truncated", []byte{byte(KindPutResponse), 1, 0, 0}},
	}
	for _, tt := range tests {
		if _, err := Unmarshal(tt.b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Unmarshal = %v, want ErrMalformed", tt.name, err)
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	b := Marshal(PutResponse{Results: []PutResult{{OK: true}}})
	b = append(b, 0xFF)
	if _, err := Unmarshal(b); !errors.Is(err, ErrMalformed) {
		t.Errorf("Unmarshal with trailing bytes = %v, want ErrMalformed", err)
	}
}

func TestUnmarshalRejectsOverlongLength(t *testing.T) {
	// PUT_RESPONSE with a declared error-string length far beyond the
	// actual payload must be rejected, not cause a huge allocation.
	b := []byte{byte(KindPutResponse), 1, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := Unmarshal(b); !errors.Is(err, ErrMalformed) {
		t.Errorf("Unmarshal with overlong length = %v, want ErrMalformed", err)
	}
}

func TestQuickMessageRoundTrip(t *testing.T) {
	prop := func(tag [32]byte, challenge, wrapped, blob []byte, found bool) bool {
		m := GetResponse{Results: []GetResult{{
			Found: found,
			Sealed: mle.Sealed{
				Challenge:  challenge,
				WrappedKey: wrapped,
				Blob:       blob,
			},
		}}}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		gr, ok := got.(GetResponse)
		if !ok || len(gr.Results) != 1 || gr.Results[0].Found != found {
			return false
		}
		sealed := gr.Results[0].Sealed
		return bytes.Equal(sealed.Challenge, challenge) &&
			bytes.Equal(sealed.WrappedKey, wrapped) &&
			bytes.Equal(sealed.Blob, blob)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 128}); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("a"), bytes.Repeat([]byte("x"), 100_000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrameInto(&buf, nil)
		if err != nil {
			t.Fatalf("ReadFrameInto: %v", err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("ReadFrameInto = %d bytes, want %d", len(got), len(p))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr bytes.Buffer
	if err := WriteFrame(&hdr, make([]byte, 8)); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := hdr.Bytes()
	// Forge a header announcing an oversized frame.
	raw[0], raw[1], raw[2], raw[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrameInto(bytes.NewReader(raw), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("ReadFrameInto = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	raw := buf.Bytes()[:50]
	if _, err := ReadFrameInto(bytes.NewReader(raw), nil); err == nil {
		t.Error("ReadFrameInto accepted truncated payload")
	}
}

// handshakePair establishes a channel between two enclaves over an
// in-memory pipe and returns (client, server) channels.
func handshakePair(t *testing.T, p *enclave.Platform, app, store *enclave.Enclave, accept func(enclave.Measurement) bool) (*Channel, *Channel) {
	t.Helper()
	cConn, sConn := net.Pipe()
	type res struct {
		ch  *Channel
		err error
	}
	serverDone := make(chan res, 1)
	go func() {
		ch, err := ServerHandshake(sConn, store, accept)
		serverDone <- res{ch, err}
	}()
	client, err := ClientHandshake(cConn, app, store.Measurement())
	sr := <-serverDone
	if err != nil {
		t.Fatalf("ClientHandshake: %v", err)
	}
	if sr.err != nil {
		t.Fatalf("ServerHandshake: %v", sr.err)
	}
	return client, sr.ch
}

// TestChannelSetDeadline: the channel sets no deadline of its own, and
// one set on its connection bounds it. An expired deadline surfaces as
// a timeout from Recv instead of blocking forever, and clearing it
// restores the channel for a frame the peer sends afterwards: no byte of
// a frame was consumed before the timeout.
func TestChannelSetDeadline(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	app, _ := p.Create("app", []byte("app code"))
	st, _ := p.Create("store", []byte("store code"))
	client, server := handshakePair(t, p, app, st, nil)
	defer client.Close()
	defer server.Close()
	conn := client.conn.(net.Conn)

	if err := conn.SetDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatalf("SetDeadline: %v", err)
	}
	start := time.Now()
	if _, err := client.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Recv past the deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Recv blocked %v despite the deadline", elapsed)
	}

	if err := conn.SetDeadline(time.Time{}); err != nil {
		t.Fatalf("clearing the deadline: %v", err)
	}
	go func() { _ = server.Send([]byte("after deadline")) }()
	payload, err := client.Recv()
	if err != nil {
		t.Fatalf("Recv after clearing the deadline: %v", err)
	}
	if !bytes.Equal(payload, []byte("after deadline")) {
		t.Errorf("payload = %q", payload)
	}
}

// recvEnvelope receives one envelope and returns its request ID and
// its message, detached from the channel's receive scratch.
func recvEnvelope(c *Channel) (uint64, Message, error) {
	payload, err := c.Recv()
	if err != nil {
		return 0, nil, err
	}
	id, _, msg, err := UnmarshalEnvelope(payload)
	if err != nil {
		return 0, nil, err
	}
	c.Detach()
	return id, msg, nil
}

func TestSecureChannelRoundTrip(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))
	client, server := handshakePair(t, p, app, store, nil)
	defer client.Close()

	if client.Peer() != store.Measurement() {
		t.Error("client channel has wrong peer measurement")
	}
	if server.Peer() != app.Measurement() {
		t.Error("server channel has wrong peer measurement")
	}

	req := GetRequest{Tags: []mle.Tag{mustTag(0x55)}}
	done := make(chan error, 1)
	go func() {
		id, msg, err := recvEnvelope(server)
		if err != nil {
			done <- err
			return
		}
		got, ok := msg.(GetRequest)
		if !ok || !reflect.DeepEqual(got, req) {
			done <- errors.New("server received wrong message")
			return
		}
		done <- server.SendEnvelope(id, GetResponse{Results: []GetResult{{Found: true, Sealed: mle.Sealed{Blob: []byte("b")}}}})
	}()
	if err := client.SendEnvelope(9, req); err != nil {
		t.Fatalf("SendEnvelope: %v", err)
	}
	id, reply, err := recvEnvelope(client)
	if err != nil {
		t.Fatalf("recvEnvelope: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	gr, ok := reply.(GetResponse)
	if !ok || id != 9 || len(gr.Results) != 1 || !gr.Results[0].Found || string(gr.Results[0].Sealed.Blob) != "b" {
		t.Errorf("reply %d = %#v, want found blob under ID 9", id, reply)
	}
}

func TestSecureChannelEncryptsTraffic(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))

	cConn, sConn := net.Pipe()
	// A tap that records everything the client writes to the wire.
	var captured bytes.Buffer
	tap := &tapConn{ReadWriteCloser: cConn, w: &captured}

	serverDone := make(chan *Channel, 1)
	go func() {
		ch, err := ServerHandshake(sConn, store, nil)
		if err != nil {
			t.Errorf("ServerHandshake: %v", err)
			serverDone <- nil
			return
		}
		serverDone <- ch
	}()
	client, err := ClientHandshake(tap, app, store.Measurement())
	if err != nil {
		t.Fatalf("ClientHandshake: %v", err)
	}
	server := <-serverDone
	if server == nil {
		t.Fatal("server handshake failed")
	}

	secret := []byte("very-identifiable-secret-tag-material")
	go func() { _, _ = server.Recv() }()
	if err := client.Send(secret); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if bytes.Contains(captured.Bytes(), secret) {
		t.Error("secret appeared in plaintext on the wire")
	}
}

type tapConn struct {
	io.ReadWriteCloser
	w io.Writer
}

func (c *tapConn) Write(p []byte) (int, error) {
	_, _ = c.w.Write(p)
	return c.ReadWriteCloser.Write(p)
}

func TestSecureChannelRejectsTamper(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))
	client, server := handshakePair(t, p, app, store, nil)
	defer client.Close()

	// Forge a frame directly on the server's recv path by sending a
	// valid frame and then a corrupted one.
	go func() {
		_ = client.Send([]byte("ok"))
		// Second message with a flipped ciphertext byte: encrypt
		// legitimately, then corrupt in flight by sending a raw frame.
		_ = WriteFrame(client.conn, []byte("garbage-not-a-valid-ciphertext"))
	}()
	if _, err := server.Recv(); err != nil {
		t.Fatalf("first Recv: %v", err)
	}
	if _, err := server.Recv(); !errors.Is(err, ErrChannelAuth) {
		t.Errorf("tampered Recv = %v, want ErrChannelAuth", err)
	}
}

func TestServerHandshakeRejectsClient(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))

	cConn, sConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(sConn, store, func(enclave.Measurement) bool { return false })
		errCh <- err
		sConn.Close()
	}()
	_, _ = ClientHandshake(cConn, app, store.Measurement())
	if err := <-errCh; !errors.Is(err, ErrPeerRejected) {
		t.Errorf("ServerHandshake = %v, want ErrPeerRejected", err)
	}
}

// TestServerRejectsHelloForAnotherEnclave: a client that expects a
// different server measurement targets its report at that enclave, so
// the real server cannot verify the report and refuses the hello before
// the client checks anything. TestClientHandshakeRejectsWrongRemoteServer
// covers the client's own measurement check.
func TestServerRejectsHelloForAnotherEnclave(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))
	var wrong enclave.Measurement
	wrong[0] = 0xFF

	cConn, sConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(sConn, store, nil)
		errCh <- err
		sConn.Close()
	}()
	if _, err := ClientHandshake(cConn, app, wrong); err == nil {
		t.Error("ClientHandshake completed with a server that refused it")
	}
	if err := <-errCh; !errors.Is(err, enclave.ErrAttestation) {
		t.Errorf("ServerHandshake = %v, want enclave.ErrAttestation", err)
	}
}

func TestHandshakeRejectsCrossPlatform(t *testing.T) {
	// An attacker on a different machine (platform) cannot complete the
	// attested handshake even with identical code.
	p1 := enclave.NewPlatform(enclave.Config{})
	p2 := enclave.NewPlatform(enclave.Config{})
	app, _ := p1.Create("app", []byte("app code"))
	store, _ := p2.Create("store", []byte("store code"))

	cConn, sConn := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(sConn, store, nil)
		errCh <- err
		sConn.Close()
	}()
	_, cerr := ClientHandshake(cConn, app, store.Measurement())
	serr := <-errCh
	if cerr == nil && serr == nil {
		t.Error("cross-platform handshake unexpectedly succeeded")
	}
}
