package wire

import (
	"testing"
	"testing/quick"

	"speed/internal/enclave"
)

// testHello is a hello e made for target over data.
func testHello(t *testing.T, e *enclave.Enclave, target enclave.Measurement, data []byte) (enclave.Report, enclave.Quote) {
	t.Helper()
	q, err := e.Quote(data)
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	return e.Report(target, data), q
}

func TestHelloMarshalRoundTrip(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	e, _ := p.Create("app", []byte("code"))
	var target enclave.Measurement
	target[5] = 7

	report, quote := testHello(t, e, target, []byte("public key bytes here"))
	gotReport, gotQuote, err := parseHello(appendHello(nil, report, quote))
	if err != nil {
		t.Fatalf("parseHello: %v", err)
	}
	if gotReport != report {
		t.Error("report round trip mismatch")
	}
	if gotQuote.Measurement != quote.Measurement ||
		string(gotQuote.Sig) != string(quote.Sig) {
		t.Error("quote round trip mismatch")
	}
	// The quote still verifies after the round trip.
	if err := enclave.VerifyQuote(gotQuote, [][]byte{p.AttestationPublicKey()}); err != nil {
		t.Errorf("quote verification after round trip: %v", err)
	}
}

// Property: arbitrary byte strings never crash parseHello and are
// either rejected or parsed into a structurally valid hello.
func TestQuickParseHelloRobust(t *testing.T) {
	prop := func(b []byte) bool {
		_, q, err := parseHello(b)
		if err != nil {
			return true
		}
		// Parsed successfully: fields must be internally consistent
		// sizes (enforced by the unmarshal layer).
		return len(q.PlatformKey) <= len(b) && len(q.Sig) <= len(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseHelloRejectsTruncations(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	e, _ := p.Create("app", []byte("code"))
	report, quote := testHello(t, e, enclave.Measurement{}, []byte("data"))
	full := appendHello(nil, report, quote)
	for cut := 0; cut < len(full); cut += 7 {
		if _, _, err := parseHello(full[:cut]); err == nil {
			t.Fatalf("parseHello accepted truncation at %d", cut)
		}
	}
	// Trailing bytes rejected too.
	if _, _, err := parseHello(append(full, 0)); err == nil {
		t.Error("parseHello accepted trailing bytes")
	}
}
