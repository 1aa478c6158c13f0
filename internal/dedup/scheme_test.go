package dedup

import (
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
)

// The basic single-key design (Section III-B) only interoperates when
// applications agree on the key in advance — the brittleness the paper
// rejects. Two apps with DIFFERENT keys cannot share results: the
// second app sees the entry, fails verification, and recomputes.
func TestSingleKeyMismatchForcesRecompute(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("create store: %v", err)
	}
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}

	mkApp := func(name string, key [16]byte) *Runtime {
		enc, err := p.Create(name, []byte(name))
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		rt, err := NewRuntime(Config{
			Enclave: enc,
			Client:  NewLocalClient(st, enc.Measurement()),
			Scheme:  mle.NewSingleKey(key, nil),
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		rt.Registry().RegisterLibrary("lib", "1", []byte("lib code"))
		return rt
	}

	var keyA, keyB [16]byte
	copy(keyA[:], "aaaaaaaaaaaaaaaa")
	copy(keyB[:], "bbbbbbbbbbbbbbbb")
	rtA := mkApp("appA", keyA)
	rtB := mkApp("appB", keyB)

	id, err := rtA.Resolve(FuncDesc{Library: "lib", Version: "1", Signature: "f"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	input := []byte("shared input")
	compute := func([]byte) ([]byte, error) { return []byte("result"), nil }

	if _, _, err := rtA.Execute(id, input, compute); err != nil {
		t.Fatalf("A Execute: %v", err)
	}
	// B finds A's entry but cannot decrypt it: recompute, not reuse.
	res, outcome, err := rtB.Execute(id, input, compute)
	if err != nil {
		t.Fatalf("B Execute: %v", err)
	}
	if outcome != OutcomeRecomputed {
		t.Errorf("B outcome = %v, want recomputed (key mismatch)", outcome)
	}
	if string(res) != "result" {
		t.Errorf("B result = %q", res)
	}
	if got := rtB.Stats().VerifyFailures; got != 1 {
		t.Errorf("B VerifyFailures = %d, want 1", got)
	}

	// With the RCE scheme the same scenario reuses fine — the whole
	// point of Section III-C.
	rtC, rtD := mkAppRCE(t, p, st, "appC"), mkAppRCE(t, p, st, "appD")
	idC, err := rtC.Resolve(FuncDesc{Library: "lib", Version: "1", Signature: "g"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if _, _, err := rtC.Execute(idC, input, compute); err != nil {
		t.Fatalf("C Execute: %v", err)
	}
	if _, outcome, err := rtD.Execute(idC, input, compute); err != nil || outcome != OutcomeReused {
		t.Errorf("D over RCE = (%v, %v), want reused", outcome, err)
	}
}

func mkAppRCE(t *testing.T, p *enclave.Platform, st *store.Store, name string) *Runtime {
	t.Helper()
	enc, err := p.Create(name, []byte(name))
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	rt, err := NewRuntime(Config{
		Enclave: enc,
		Client:  NewLocalClient(st, enc.Measurement()),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	rt.Registry().RegisterLibrary("lib", "1", []byte("lib code"))
	return rt
}
