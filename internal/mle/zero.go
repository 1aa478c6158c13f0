package mle

// Zeroize overwrites b with zeros. Derived key material (unwrapped
// result keys, secondary keys, ECDH shared secrets) must not outlive
// the operation that needed it: enclave memory encryption protects
// pages from the outside, but a later heap reuse or a swapped snapshot
// inside the enclave does not re-derive its secrecy. Call it deferred,
// immediately after the buffer is produced —
//
//	key, err := KeyGen(...)
//	defer Zeroize(key)
//
// so every return path (including panics) is covered; Zeroize(nil) is a
// no-op, so the defer is safe to place before the error check. The
// keyzero check (internal/lint, TestModuleKeyZero) enforces this idiom.
func Zeroize(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
