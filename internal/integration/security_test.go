package integration_test

import (
	"bytes"
	"errors"
	"testing"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/store/logengine/logenginetest"
)

// End-to-end checks of the security claims in Sections II-C and III-D
// of the paper, exercised over the full stack rather than the crypto
// primitives alone.

// Query-forging attack (Section III-D): an attacker who has obtained a
// victim's computation TAG (short leak) and has full store access can
// fetch the (r, [k], [res]) triple — but cannot decrypt it, because it
// does not own the victim's function code.
func TestQueryForgingAttackDefeated(t *testing.T) {
	s := newStack(t, store.Config{}, enclave.Config{})
	victim := s.newApp("victim")
	vID := appFuncID(t, victim, "proprietary-analysis")

	secretResult := []byte("secret analysis result")
	input := []byte("customer data")
	if _, _, err := victim.Execute(vID, input, func([]byte) ([]byte, error) {
		return secretResult, nil
	}); err != nil {
		t.Fatalf("victim Execute: %v", err)
	}

	// The attacker controls the store machine's software stack: it can
	// read the stored triple directly given the tag.
	tag := mle.ComputeTag(vID, input)
	sealed, found, err := s.store.Get(tag)
	if err != nil || !found {
		t.Fatalf("attacker Get: found=%v err=%v", found, err)
	}

	// The blob must not contain the plaintext.
	if bytes.Contains(sealed.Blob, secretResult) {
		t.Fatal("stored blob leaks plaintext result")
	}

	// Decryption attempts with attacker-side knowledge must all fail:
	// wrong function identity (the attacker's own library), guessed
	// inputs, and the right input with the wrong identity.
	scheme := &mle.RCE{}
	var attackerID mle.FuncID
	attackerID[0] = 0xAA
	attempts := []struct {
		name  string
		id    mle.FuncID
		input []byte
	}{
		{"attacker code + victim input", attackerID, input},
		{"attacker code + guessed input", attackerID, []byte("guess")},
		{"victim id + wrong input", vID, []byte("guess")},
	}
	for _, a := range attempts {
		if _, err := scheme.Decrypt(a.id, a.input, sealed); !errors.Is(err, mle.ErrAuthFailed) {
			t.Errorf("%s: Decrypt = %v, want ErrAuthFailed", a.name, err)
		}
	}

	// But an independent party that DOES own the computation succeeds
	// — that is the deduplication functionality itself.
	if res, err := scheme.Decrypt(vID, input, sealed); err != nil || !bytes.Equal(res, secretResult) {
		t.Errorf("legitimate decrypt = (%q, %v)", res, err)
	}
}

// Cache poisoning (Sections III-D / II-C): a storage-controlling
// adversary rewrites a stored result on the untrusted disk; the victim
// never accepts a wrong result — it recomputes, and the recomputation
// replaces the poisoned entry so later calls reuse again. (An entry the
// store itself substitutes is TestExecuteRecoversFromPoisonedEntry in
// internal/dedup.)
func TestCachePoisoningNeverYieldsWrongResults(t *testing.T) {
	dir := t.TempDir()
	mkStack := func() *stack {
		return newStack(t, store.Config{DataDir: dir}, enclave.Config{PlatformSeed: []byte("victim-machine")})
	}
	compute := func(in []byte) ([]byte, error) {
		return append([]byte("good-"), in...), nil
	}
	input := []byte("x")

	s1 := mkStack()
	app1 := s1.newApp("app")
	id := appFuncID(t, app1, "f")
	if _, _, err := app1.Execute(id, input, compute); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	s1.store.Close() // flushes the result into a segment

	logenginetest.TamperSegmentRecord(t, dir, mle.ComputeTag(id, input))

	s2 := mkStack()
	defer s2.store.Close()
	app := s2.newApp("app")
	res, outcome, err := app.Execute(id, input, compute)
	if err != nil {
		t.Fatalf("Execute after poisoning: %v", err)
	}
	if string(res) != "good-x" {
		t.Fatalf("poisoned store produced wrong result %q", res)
	}
	if outcome == dedup.OutcomeReused {
		t.Fatalf("poisoned entry was reused")
	}
	res, outcome, err = app.Execute(id, input, func([]byte) ([]byte, error) {
		t.Error("recomputed again after the replacement upload")
		return nil, nil
	})
	if err != nil || string(res) != "good-x" || outcome != dedup.OutcomeReused {
		t.Errorf("call after replacement = (%q, %v, %v), want the good result reused", res, outcome, err)
	}
}

// Equality-information bound (Section II-C): the only information the
// store learns about a computation is its tag; two computations with
// different inputs yield unlinkable tags and ciphertexts.
func TestStoreSeesOnlyTags(t *testing.T) {
	s := newStack(t, store.Config{}, enclave.Config{})
	app := s.newApp("app")
	id := appFuncID(t, app, "f")

	inputA := []byte("AAAAAAAAAAAAAAAAAAAAAAAA")
	inputB := append([]byte(nil), inputA...)
	inputB[0] ^= 1 // one-bit difference

	result := []byte("identical result value for both inputs")
	compute := func([]byte) ([]byte, error) { return result, nil }
	if _, _, err := app.Execute(id, inputA, compute); err != nil {
		t.Fatalf("Execute A: %v", err)
	}
	if _, _, err := app.Execute(id, inputB, compute); err != nil {
		t.Fatalf("Execute B: %v", err)
	}

	tagA := mle.ComputeTag(id, inputA)
	tagB := mle.ComputeTag(id, inputB)
	if tagA == tagB {
		t.Fatal("distinct inputs produced equal tags")
	}
	sealedA, _, err := s.store.Get(tagA)
	if err != nil {
		t.Fatalf("Get A: %v", err)
	}
	sealedB, _, err := s.store.Get(tagB)
	if err != nil {
		t.Fatalf("Get B: %v", err)
	}
	// Same plaintext result, but ciphertexts, challenges and wrapped
	// keys are all distinct (randomized encryption): the store cannot
	// link them.
	if bytes.Equal(sealedA.Blob, sealedB.Blob) {
		t.Error("equal-result computations produced equal ciphertexts")
	}
	if bytes.Equal(sealedA.Challenge, sealedB.Challenge) {
		t.Error("challenges repeat across entries")
	}
	if bytes.Equal(sealedA.WrappedKey, sealedB.WrappedKey) {
		t.Error("wrapped keys repeat across entries")
	}
	// And neither blob contains the plaintext.
	if bytes.Contains(sealedA.Blob, result) || bytes.Contains(sealedB.Blob, result) {
		t.Error("ciphertext leaks plaintext")
	}
}

// Input confidentiality: the stored triple must not contain the
// function input either (inputs never leave the enclave; only their
// hash contributions do).
func TestInputsNeverStored(t *testing.T) {
	s := newStack(t, store.Config{}, enclave.Config{})
	app := s.newApp("app")
	id := appFuncID(t, app, "f")
	input := []byte("HIGHLY-IDENTIFIABLE-INPUT-MARKER-0123456789")
	if _, _, err := app.Execute(id, input, func(in []byte) ([]byte, error) {
		return []byte("result"), nil
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	tag := mle.ComputeTag(id, input)
	sealed, found, err := s.store.Get(tag)
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	for name, field := range map[string][]byte{
		"blob":       sealed.Blob,
		"challenge":  sealed.Challenge,
		"wrappedKey": sealed.WrappedKey,
	} {
		if bytes.Contains(field, input) {
			t.Errorf("%s contains the plaintext input", name)
		}
	}
}
