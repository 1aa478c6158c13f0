package mle

import (
	"crypto/rand"
	"fmt"
	"io"
)

// This file exposes the individual cryptographic operations that Table I
// of the paper measures, so the benchmark harness can time each one in
// isolation:
//
//	Tag Gen.    ComputeTag
//	Key Gen.    KeyGen   (pick r, derive h, generate k, wrap [k])
//	Key Rec.    KeyRec   (derive h, unwrap [k])
//	Result Enc. EncryptResult
//	Result Dec. DecryptResult
//
// RCE.Encrypt/Decrypt compose these exact operations.

// KeyGen performs the "Key Gen." operation of Table I: choose a random
// challenge r, derive the secondary key h = Hash(func, m, r), generate a
// fresh result key k, and wrap it as [k] = k XOR h.
func KeyGen(id FuncID, input []byte, rnd io.Reader) (challenge, wrappedKey, key []byte, err error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	challenge = make([]byte, ChallengeSize)
	if _, err = io.ReadFull(rnd, challenge); err != nil {
		return nil, nil, nil, fmt.Errorf("mle: challenge: %w", err)
	}
	key, err = GenerateKey(rnd)
	if err != nil {
		return nil, nil, nil, err
	}
	h := secondaryKey(id, input, challenge)
	defer Zeroize(h[:])
	wrappedKey = make([]byte, KeySize)
	for i := range wrappedKey {
		wrappedKey[i] = key[i] ^ h[i]
	}
	return challenge, wrappedKey, key, nil
}

// KeyRec performs the "Key Rec." operation of Table I: derive
// h = Hash(func, m, r) and unwrap k = [k] XOR h.
func KeyRec(id FuncID, input, challenge, wrappedKey []byte) ([]byte, error) {
	if len(wrappedKey) != KeySize {
		return nil, ErrAuthFailed
	}
	h := secondaryKey(id, input, challenge)
	defer Zeroize(h[:])
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = wrappedKey[i] ^ h[i]
	}
	return key, nil
}

// EncryptResult performs the "Result Enc." operation of Table I:
// AES-128-GCM encryption of the result under k.
func EncryptResult(key, result []byte, rnd io.Reader) ([]byte, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	return sealAESGCM(key, result, nil, rnd)
}

// DecryptResult performs the "Result Dec." operation of Table I,
// returning ErrAuthFailed when the blob fails its authenticity check.
func DecryptResult(key, blob []byte) ([]byte, error) {
	return openAESGCM(key, blob, nil)
}
