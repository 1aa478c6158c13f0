package enclave

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestQuoteVerify(t *testing.T) {
	p := NewPlatform(Config{})
	e, err := p.Create("app", []byte("code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	q, err := e.Quote([]byte("channel key"))
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	if err := VerifyQuote(q, [][]byte{p.AttestationPublicKey()}); err != nil {
		t.Fatalf("VerifyQuote: %v", err)
	}
	if q.Measurement != e.Measurement() {
		t.Error("quote carries wrong measurement")
	}
	if !bytes.HasPrefix(q.Data[:], []byte("channel key")) {
		t.Error("quote data not embedded")
	}
}

func TestQuoteRejectsUntrustedPlatform(t *testing.T) {
	p1 := NewPlatform(Config{})
	p2 := NewPlatform(Config{})
	e, _ := p1.Create("app", []byte("code"))
	q, err := e.Quote(nil)
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	for name, keys := range map[string][][]byte{
		"empty trust set": nil,
		"other platform":  {p2.AttestationPublicKey()},
	} {
		if err := VerifyQuote(q, keys); !errors.Is(err, ErrQuoteVerification) {
			t.Errorf("%s: VerifyQuote = %v, want ErrQuoteVerification", name, err)
		}
	}
}

func TestQuoteRejectsForgedKey(t *testing.T) {
	p := NewPlatform(Config{})
	e, _ := p.Create("app", []byte("code"))
	q, err := e.Quote(nil)
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	// Trust a garbage key and claim the quote came from it.
	garbage := []byte("not a PKIX key")
	q.PlatformKey = garbage
	if err := VerifyQuote(q, [][]byte{garbage}); !errors.Is(err, ErrQuoteVerification) {
		t.Errorf("VerifyQuote with garbage key = %v, want ErrQuoteVerification", err)
	}
}

func TestQuoteMarshalMalformed(t *testing.T) {
	p := NewPlatform(Config{})
	e, _ := p.Create("app", []byte("code"))
	q, err := e.Quote([]byte("d"))
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	full := q.Marshal()
	for _, cut := range []int{0, 10, 95, len(full) - 1} {
		if _, err := UnmarshalQuote(full[:cut]); err == nil {
			t.Errorf("UnmarshalQuote accepted truncation at %d", cut)
		}
	}
	if _, err := UnmarshalQuote(append(full, 1)); err == nil {
		t.Error("UnmarshalQuote accepted trailing bytes")
	}
}

func TestDeterministicKeyStable(t *testing.T) {
	k1 := deterministicP256Key(newSeededReader([]byte("seed")))
	k2 := deterministicP256Key(newSeededReader([]byte("seed")))
	if k1.D.Cmp(k2.D) != 0 {
		t.Error("same seed produced different keys")
	}
	k3 := deterministicP256Key(newSeededReader([]byte("other")))
	if k1.D.Cmp(k3.D) == 0 {
		t.Error("different seeds produced identical keys")
	}
	// The derived point must be on the curve.
	if !k1.Curve.IsOnCurve(k1.X, k1.Y) {
		t.Error("derived public point off curve")
	}
}

func TestSeededReader(t *testing.T) {
	r1 := newSeededReader([]byte("s"))
	r2 := newSeededReader([]byte("s"))
	a := make([]byte, 100)
	b := make([]byte, 100)
	if _, err := io.ReadFull(r1, a); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	// Read in odd-sized chunks: the stream must be identical
	// regardless of read partitioning.
	for off := 0; off < 100; {
		n := 7
		if off+n > 100 {
			n = 100 - off
		}
		if _, err := io.ReadFull(r2, b[off:off+n]); err != nil {
			t.Fatalf("ReadFull: %v", err)
		}
		off += n
	}
	if !bytes.Equal(a, b) {
		t.Error("seeded stream depends on read partitioning")
	}
	// Not trivially constant.
	if bytes.Equal(a[:32], a[32:64]) {
		t.Error("seeded stream repeats blocks")
	}
}

func TestSeededPlatformSealingStable(t *testing.T) {
	mk := func() *Enclave {
		p := NewPlatform(Config{PlatformSeed: []byte("machine")})
		e, err := p.Create("app", []byte("code"))
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		return e
	}
	e1, e2 := mk(), mk()
	sealed, err := e1.Seal(nil, []byte("secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, err := e2.Unseal(nil, sealed, nil)
	if err != nil {
		t.Fatalf("Unseal across instances: %v", err)
	}
	if string(got) != "secret" {
		t.Errorf("Unseal = %q", got)
	}
	// And the attestation keys match.
	if !bytes.Equal(e1.platform.AttestationPublicKey(), e2.platform.AttestationPublicKey()) {
		t.Error("seeded attestation keys differ")
	}
}
