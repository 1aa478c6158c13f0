// Package mle implements the cryptographic core of SPEED: computation
// tags and the result-encryption scheme built on randomized convergent
// encryption (RCE), a message-locked encryption (MLE) variant.
//
// Unlike data deduplication, where duplicates are identified by the hash
// of the data alone, computation deduplication identifies a computation
// by the combination of a function's code identity and its input data
// (Section III-A of the paper). This package therefore keys everything
// off a (FuncID, input) pair:
//
//	tag t     = SHA-256(funcID || input)                duplicate check
//	h         = SHA-256(funcID || input || r)           secondary key
//	k         = random AES-128 key                      result key
//	[k]       = k XOR h[:16]                            wrapped key
//	[res]     = AES-128-GCM(k, result)                  result ciphertext
//
// where r is a random challenge chosen by the initial computation
// (Algorithm 1). Any application that owns the same function code and
// input recomputes h, unwraps k, and decrypts (Algorithm 2); an
// application that merely obtained (r, [k], [res]) via the tag cannot,
// which is the query-forging resistance argued in Section III-D.
package mle

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Sizes of the scheme's fixed-length values.
const (
	// TagSize is the size of a computation tag (SHA-256).
	TagSize = 32
	// KeySize is the AES-128 result-encryption key size, matching the
	// paper's AES-GCM-128 choice from the SGX SDK crypto library.
	KeySize = 16
	// ChallengeSize is the size of the random challenge message r.
	ChallengeSize = 16
	// nonceSize is the standard GCM nonce size.
	nonceSize = 12
)

// ErrAuthFailed is returned when decryption or verification fails: the
// ciphertext was tampered with, or the caller does not actually own the
// function code and input (the ⊥ case of the Fig. 3 protocol).
var ErrAuthFailed = errors.New("mle: authentication failed")

// FuncID is the universally unique identity of a deduplicable function,
// derived by the runtime from the function's description (library
// family, version, signature) and the measured code of its trusted
// library (Section IV-B).
type FuncID [32]byte

// Tag is the duplicate-checking tag t = Hash(func, m). Two computations
// are considered duplicates exactly when their tags are equal.
type Tag [TagSize]byte

// String renders a short hex prefix for logs.
func (t Tag) String() string { return fmt.Sprintf("%x", t[:8]) }

// ComputeTag derives the tag for a computation func(input).
// Domain-separated lengths make the encoding injective.
func ComputeTag(id FuncID, input []byte) Tag {
	h := sha256.New()
	writeDomain(h, "speed/tag/v1")
	h.Write(id[:])
	writeLen(h, len(input))
	h.Write(input)
	var t Tag
	h.Sum(t[:0])
	return t
}

// secondaryKey computes h = Hash(func, m, r), the one-time pad that
// wraps the random result key.
func secondaryKey(id FuncID, input, challenge []byte) [32]byte {
	h := sha256.New()
	writeDomain(h, "speed/h/v1")
	h.Write(id[:])
	writeLen(h, len(input))
	h.Write(input)
	writeLen(h, len(challenge))
	h.Write(challenge)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func writeDomain(w io.Writer, s string) {
	_, _ = io.WriteString(w, s)
	_, _ = w.Write([]byte{0})
}

func writeLen(w io.Writer, n int) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(n))
	_, _ = w.Write(buf[:])
}

// Sealed is the protected form of a computation result, i.e. the
// (r, [k], [res]) triple stored at the ResultStore. Challenge and
// WrappedKey are small metadata kept inside the store enclave; Blob is
// the bulk ciphertext kept outside (Section IV-B).
type Sealed struct {
	// Challenge is the random challenge message r.
	Challenge []byte
	// WrappedKey is [k] = k XOR Hash(func, m, r)[:16].
	WrappedKey []byte
	// Blob is nonce || AES-128-GCM(k, result).
	Blob []byte
}

// Size returns the number of bytes the triple carries, the measure wire
// windows and reply budgets are sized by.
func (s Sealed) Size() int {
	return len(s.Challenge) + len(s.WrappedKey) + len(s.Blob)
}

// Clone returns a deep copy of the triple in one allocation (none for
// the zero triple): what a store table keeps, and what an in-process
// reader keeps of the read-only view the store answers with.
func (s Sealed) Clone() Sealed {
	if s.Size() == 0 {
		return Sealed{}
	}
	nc, nk := len(s.Challenge), len(s.WrappedKey)
	// Join allocates without zeroing bytes it overwrites at once.
	buf := bytes.Join([][]byte{s.Challenge, s.WrappedKey, s.Blob}, nil)
	return Sealed{Challenge: buf[:nc:nc], WrappedKey: buf[nc : nc+nk : nc+nk], Blob: buf[nc+nk:]}
}

// RCE is the paper's main design (Section III-C): a keyless,
// cross-application result encryption scheme drawing its randomness
// from crypto/rand.
type RCE struct{}

// Encrypt implements Algorithm 1 lines 5-9: pick challenge r, derive
// h = Hash(func, m, r), generate random k, encrypt the result under k,
// and wrap k as [k] = k XOR h.
func (*RCE) Encrypt(id FuncID, input, result []byte) (Sealed, error) {
	challenge, wrapped, key, err := KeyGen(id, input, nil)
	defer Zeroize(key)
	if err != nil {
		return Sealed{}, err
	}
	blob, err := EncryptResult(key, result, nil)
	if err != nil {
		return Sealed{}, err
	}
	return Sealed{Challenge: challenge, WrappedKey: wrapped, Blob: blob}, nil
}

// Decrypt implements Algorithm 2 lines 4-6 and the Fig. 3 verification:
// recover k = [k] XOR Hash(func, m, r) and attempt authenticated
// decryption; any mismatch in code, input, challenge, wrapped key, or
// ciphertext yields ErrAuthFailed (⊥).
func (*RCE) Decrypt(id FuncID, input []byte, s Sealed) ([]byte, error) {
	key, err := KeyRec(id, input, s.Challenge, s.WrappedKey)
	defer Zeroize(key)
	if err != nil {
		return nil, err
	}
	return DecryptResult(key, s.Blob)
}

// SingleKey is the basic design of Section III-B: all results are
// protected under one system-wide secret key. The runtime never uses
// it; it is kept only as the cost baseline of the scheme ablation
// (internal/bench.AblationScheme). The paper rejects it because a
// single compromised application exposes every stored result.
type SingleKey struct {
	key  [KeySize]byte
	rand io.Reader
}

// NewSingleKey constructs the basic scheme with the given system-wide
// key. rnd may be nil to use crypto/rand.
func NewSingleKey(key [KeySize]byte, rnd io.Reader) *SingleKey {
	if rnd == nil {
		rnd = rand.Reader
	}
	return &SingleKey{key: key, rand: rnd}
}

// Encrypt seals result under the system-wide key. The tag-bound
// associated data prevents an adversary from splicing a ciphertext onto
// a different computation's dictionary entry.
func (s *SingleKey) Encrypt(id FuncID, input, result []byte) (Sealed, error) {
	tag := ComputeTag(id, input)
	blob, err := sealAESGCM(s.key[:], result, tag[:], s.rand)
	if err != nil {
		return Sealed{}, err
	}
	return Sealed{Blob: blob}, nil
}

// Decrypt opens a triple sealed by Encrypt, returning ErrAuthFailed
// when it is inauthentic or was sealed for another computation.
func (s *SingleKey) Decrypt(id FuncID, input []byte, sl Sealed) ([]byte, error) {
	tag := ComputeTag(id, input)
	return openAESGCM(s.key[:], sl.Blob, tag[:])
}

// GenerateKey produces a fresh random AES-128 key, the paper's
// AES.KeyGen(1^λ).
func GenerateKey(rnd io.Reader) ([]byte, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rnd, key); err != nil {
		return nil, fmt.Errorf("mle: keygen: %w", err)
	}
	return key, nil
}

func sealAESGCM(key, plaintext, ad []byte, rnd io.Reader) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	// Size the blob exactly (nonce || ciphertext || tag) so Seal appends
	// in place instead of growing a 12-byte nonce slice with a copy.
	out := make([]byte, nonceSize, nonceSize+len(plaintext)+aead.Overhead())
	if _, err := io.ReadFull(rnd, out); err != nil {
		return nil, fmt.Errorf("mle: nonce: %w", err)
	}
	return aead.Seal(out, out[:nonceSize], plaintext, ad), nil
}

func openAESGCM(key, blob, ad []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	if len(blob) < nonceSize {
		return nil, ErrAuthFailed
	}
	pt, err := aead.Open(nil, blob[:nonceSize], blob[nonceSize:], ad)
	if err != nil {
		return nil, ErrAuthFailed
	}
	return pt, nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("mle: cipher: %w", err)
	}
	return cipher.NewGCM(block)
}
