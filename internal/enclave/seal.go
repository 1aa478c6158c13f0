package enclave

import (
	"crypto/rand"
	"errors"
	"fmt"
	"slices"
)

// ErrUnsealFailed is returned when sealed data fails authentication,
// e.g. because it was tampered with or sealed by a different enclave
// identity or platform.
var ErrUnsealFailed = errors.New("enclave: unseal authentication failed")

// SealNonceSize is the nonce slot ahead of Seal's ciphertext, and
// SealOverhead all that Seal adds to its data: nonce and GCM tag.
const (
	SealNonceSize = 12
	SealOverhead  = SealNonceSize + 16
)

// Seal encrypts data under the enclave's measurement-bound sealing key
// (AES-128-GCM), so that only the same enclave identity on the same
// platform can recover it, authenticates ad (which is not stored) with
// it, and appends nonce‖ciphertext to dst. This mirrors SGX's
// sgx_seal_data with MRENCLAVE key policy and additional MAC text. Data
// that sits directly after a nonce slot at the end of dst, with room
// for the tag in dst's capacity, is encrypted in place; any other data
// must not overlap dst's spare capacity, and ad must not overlap dst.
func (e *Enclave) Seal(dst, data, ad []byte) ([]byte, error) {
	head := len(dst)
	dst = slices.Grow(dst, SealOverhead+len(data))[:head+SealNonceSize]
	if _, err := rand.Read(dst[head:]); err != nil {
		return nil, fmt.Errorf("seal nonce: %w", err)
	}
	return e.seal.Seal(dst, dst[head:], data, ad), nil
}

// Unseal decrypts and authenticates data produced by Seal, with the
// same ad, on the same enclave identity and platform, and appends the
// plaintext to dst, whose spare capacity must not overlap sealed.
func (e *Enclave) Unseal(dst, sealed, ad []byte) ([]byte, error) {
	if len(sealed) < SealNonceSize {
		return nil, ErrUnsealFailed
	}
	pt, err := e.seal.Open(dst, sealed[:SealNonceSize], sealed[SealNonceSize:], ad)
	if err != nil {
		return nil, ErrUnsealFailed
	}
	return pt, nil
}
