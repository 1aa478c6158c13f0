package wire

import (
	"errors"
	"net"
	"testing"

	"speed/internal/enclave"
)

// trustPair runs a cross-platform handshake: client on platform A,
// server on platform B, each side given the supplied trust sets.
func trustPair(t *testing.T, clientTrust, serverTrust *Trust) (client, server *Channel, cerr, serr error) {
	t.Helper()
	pA := enclave.NewPlatform(enclave.Config{})
	pB := enclave.NewPlatform(enclave.Config{})
	app, err := pA.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("create app: %v", err)
	}
	st, err := pB.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("create store: %v", err)
	}

	cConn, sConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, serr = ServerHandshakeTrust(sConn, st, nil, serverTrust)
		if serr != nil {
			// A failed server never sends its hello; unblock the
			// client by closing the pipe.
			sConn.Close()
		}
	}()
	client, cerr = ClientHandshakeTrust(cConn, app, st.Measurement(), clientTrust)
	<-done
	if cerr != nil {
		cConn.Close()
	}
	return client, server, cerr, serr
}

func platformKeysOf(t *testing.T, seeds ...string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(seeds))
	for _, s := range seeds {
		p := enclave.NewPlatform(enclave.Config{PlatformSeed: []byte(s)})
		out[s] = p.AttestationPublicKey()
	}
	return out
}

func TestCrossPlatformHandshakeWithMutualTrust(t *testing.T) {
	// Build the two platforms first so we can exchange their keys.
	pA := enclave.NewPlatform(enclave.Config{})
	pB := enclave.NewPlatform(enclave.Config{})
	app, _ := pA.Create("app", []byte("app code"))
	st, _ := pB.Create("store", []byte("store code"))

	clientTrust := &Trust{PlatformKeys: [][]byte{pB.AttestationPublicKey()}}
	serverTrust := &Trust{PlatformKeys: [][]byte{pA.AttestationPublicKey()}}

	cConn, sConn := net.Pipe()
	type res struct {
		ch  *Channel
		err error
	}
	serverDone := make(chan res, 1)
	go func() {
		ch, err := ServerHandshakeTrust(sConn, st, nil, serverTrust)
		serverDone <- res{ch, err}
	}()
	client, err := ClientHandshakeTrust(cConn, app, st.Measurement(), clientTrust)
	sr := <-serverDone
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	if sr.err != nil {
		t.Fatalf("server handshake: %v", sr.err)
	}
	defer client.Close()

	if client.Peer() != st.Measurement() {
		t.Error("client sees wrong peer measurement")
	}
	if sr.ch.Peer() != app.Measurement() {
		t.Error("server sees wrong peer measurement")
	}

	// Traffic flows.
	go func() { _ = sr.ch.Send([]byte("pong")) }()
	done := make(chan error, 1)
	go func() {
		msg, rerr := client.Recv()
		if rerr != nil {
			done <- rerr
			return
		}
		if string(msg) != "pong" {
			done <- errors.New("wrong payload")
			return
		}
		done <- nil
	}()
	if err := <-done; err != nil {
		t.Fatalf("cross-platform traffic: %v", err)
	}
}

func TestCrossPlatformRejectedWithoutTrust(t *testing.T) {
	_, _, cerr, serr := trustPair(t, nil, nil)
	if cerr == nil && serr == nil {
		t.Fatal("cross-platform handshake succeeded with no trust configured")
	}
}

func TestCrossPlatformRejectedWithWrongTrust(t *testing.T) {
	// Both sides trust some unrelated third platform.
	other := enclave.NewPlatform(enclave.Config{})
	wrong := &Trust{PlatformKeys: [][]byte{other.AttestationPublicKey()}}
	_, _, cerr, serr := trustPair(t, wrong, wrong)
	if cerr == nil && serr == nil {
		t.Fatal("cross-platform handshake succeeded with wrong trust set")
	}
}

func TestQuoteMarshalRoundTrip(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	e, _ := p.Create("app", []byte("code"))
	q, err := e.Quote([]byte("key material"))
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	got, err := enclave.UnmarshalQuote(q.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalQuote: %v", err)
	}
	if got.Measurement != q.Measurement || string(got.Sig) != string(q.Sig) {
		t.Error("quote round trip mismatch")
	}
	if err := enclave.VerifyQuote(got, [][]byte{p.AttestationPublicKey()}); err != nil {
		t.Errorf("VerifyQuote after round trip: %v", err)
	}
	if _, err := enclave.UnmarshalQuote(q.Marshal()[:10]); err == nil {
		t.Error("UnmarshalQuote accepted truncated input")
	}
}

func TestQuoteTamperRejected(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	e, _ := p.Create("app", []byte("code"))
	trusted := [][]byte{p.AttestationPublicKey()}

	base, err := e.Quote([]byte("data"))
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	mutations := map[string]func(enclave.Quote) enclave.Quote{
		"measurement": func(q enclave.Quote) enclave.Quote { q.Measurement[0] ^= 1; return q },
		"data":        func(q enclave.Quote) enclave.Quote { q.Data[0] ^= 1; return q },
		"signature":   func(q enclave.Quote) enclave.Quote { q.Sig = append([]byte(nil), q.Sig...); q.Sig[4] ^= 1; return q },
	}
	for name, mutate := range mutations {
		if err := enclave.VerifyQuote(mutate(base), trusted); !errors.Is(err, enclave.ErrQuoteVerification) {
			t.Errorf("%s tamper: VerifyQuote = %v, want ErrQuoteVerification", name, err)
		}
	}
	// Untrusted platform.
	if err := enclave.VerifyQuote(base, nil); !errors.Is(err, enclave.ErrQuoteVerification) {
		t.Errorf("untrusted platform: VerifyQuote = %v", err)
	}
}

func TestSeededPlatformAttestationKeyStable(t *testing.T) {
	keys := platformKeysOf(t, "machine-X")
	again := platformKeysOf(t, "machine-X")
	if string(keys["machine-X"]) != string(again["machine-X"]) {
		t.Error("seeded platform attestation key not deterministic")
	}
	other := platformKeysOf(t, "machine-Y")
	if string(keys["machine-X"]) == string(other["machine-Y"]) {
		t.Error("different seeds produced identical attestation keys")
	}
}

// TestClientHandshakeRejectsWrongRemoteServer isolates the client's
// measurement check: the server, on a platform the client trusts,
// verifies the client's quote and answers with a valid hello, so only
// the client's "equals peerMeasurement" predicate can refuse it.
func TestClientHandshakeRejectsWrongRemoteServer(t *testing.T) {
	pA, pB := enclave.NewPlatform(enclave.Config{}), enclave.NewPlatform(enclave.Config{})
	app, _ := pA.Create("app", []byte("app code"))
	st, _ := pB.Create("store", []byte("store code"))
	var wrong enclave.Measurement
	wrong[0] = 0xFF

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	serr := make(chan error, 1)
	go func() {
		ch, err := ServerHandshakeTrust(sConn, st, nil, &Trust{PlatformKeys: [][]byte{pA.AttestationPublicKey()}})
		if err == nil {
			ch.Close()
		}
		serr <- err
	}()
	_, err := ClientHandshakeTrust(cConn, app, wrong, &Trust{PlatformKeys: [][]byte{pB.AttestationPublicKey()}})
	if !errors.Is(err, ErrPeerRejected) {
		t.Errorf("ClientHandshakeTrust to the wrong, attested server = %v, want ErrPeerRejected", err)
	}
	if err := <-serr; err != nil {
		t.Errorf("the server refused the client (%v); the test wants only the client's check to refuse", err)
	}
}
