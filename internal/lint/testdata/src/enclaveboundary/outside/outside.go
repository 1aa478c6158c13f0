// Package outside is untrusted application code reaching past the
// documented ECALL surface.
package outside

import (
	"fix/enclaveboundary/enclave"
)

type Channel struct{}

func (Channel) Send(b []byte) error { return nil }

func verify(q []byte) error {
	return enclave.VerifyQuote(q) // want `attestation primitive enclave.VerifyQuote called from package outside`
}

func seal(e enclave.Enclave, data []byte) ([]byte, error) {
	return e.Seal(data) // want `sealing primitive Enclave.Seal called from package outside`
}

// sendCipher ships ciphertext, which is fine.
func sendCipher(ch Channel, wrappedKey []byte) error {
	return ch.Send(wrappedKey)
}
