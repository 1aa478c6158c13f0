// Package app exercises the sealflow analyzer: key material and
// dictionary plaintext flowing to wire, disk and log sinks, with and
// without a sealing call on the way.
package app

import (
	"fmt"
	"os"

	"fix/sealflow/engine"
	"fix/sealflow/mle"
)

// Conn matches the wire-channel shape: Send counts as a conn sink.
type Conn struct{}

func (Conn) Send(b []byte) error { return nil }

// Seal stands in for the enclave sealing primitive (a sanitizer).
func Seal(b []byte) []byte { return b }

func deriveKey() []byte { return make([]byte, 32) }

// leakKeyToWire sends raw key material over the channel.
func leakKeyToWire(c Conn) error {
	key := deriveKey()
	return c.Send(key) // want `key material reaches the wire`
}

// sendSealed is the legal path: only ciphertext crosses the channel.
func sendSealed(c Conn) error {
	key := deriveKey()
	return c.Send(Seal(key))
}

// leakChallengeToDisk writes a dictionary secret unsealed.
func leakChallengeToDisk(rec engine.Record) error {
	return os.WriteFile("r.bin", rec.Challenge, 0o600) // want `enclave plaintext reaches the untrusted disk`
}

// writeBlob is fine: Blob is already AEAD ciphertext.
func writeBlob(rec engine.Record) error {
	return os.WriteFile("r.bin", rec.Blob, 0o600)
}

// encode keeps the dictionary taint alive through a helper: its result
// carries enclave plaintext in the caller (summary propagation).
func encode(rec engine.Record) []byte {
	out := append([]byte(nil), rec.Challenge...)
	out = append(out, rec.WrappedKey...)
	return out
}

// writeOut is a summarised disk sink: tainted arguments flag at the
// caller, not here.
func writeOut(b []byte) error {
	return os.WriteFile("out.bin", b, 0o600)
}

// flushUnsealed leaks through the encode→writeOut helper chain.
func flushUnsealed(rec engine.Record) error {
	return writeOut(encode(rec)) // want `enclave plaintext reaches the untrusted disk`
}

// flushSealed seals before the helper sink: clean.
func flushSealed(rec engine.Record) error {
	return writeOut(Seal(encode(rec)))
}

// logKey prints key material: a telemetry sink.
func logKey() {
	key := deriveKey()
	fmt.Printf("key=%x\n", key) // want `key material reaches a log/telemetry call`
}

// logKeyLen is clean: len() is a public projection of the secret.
func logKeyLen() {
	key := deriveKey()
	fmt.Printf("key bytes=%d\n", len(key))
}

// encodeManifest serialises per-chunk envelopes into a manifest body,
// the chunked-dedup seal surface: copying WrappedKey makes the result
// enclave plaintext; the Blob bytes alone would not.
func encodeManifest(chunks []mle.Sealed) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c.WrappedKey...)
		out = append(out, c.Blob...)
	}
	return out
}

// spoolManifestUnsealed writes the manifest body to disk before
// sealing it.
func spoolManifestUnsealed(chunks []mle.Sealed) error {
	return os.WriteFile("manifest.bin", encodeManifest(chunks), 0o600) // want `enclave plaintext reaches the untrusted disk`
}

// spoolManifestSealed is the legal chunked-dedup path: the manifest is
// sealed under the call's function identity before leaving the
// enclave.
func spoolManifestSealed(chunks []mle.Sealed) error {
	return os.WriteFile("manifest.bin", mle.Encrypt(encodeManifest(chunks)), 0o600)
}

// run invokes its callback, standing in for the Enclave.ECall idiom;
// the analyzer inlines the literal at the call site.
func run(f func() error) error { return f() }

// closureSeal seals inside a closure; the captured result is clean.
func closureSeal(c Conn, rec engine.Record) error {
	var sealed []byte
	if err := run(func() error {
		sealed = Seal(encode(rec))
		return nil
	}); err != nil {
		return err
	}
	return c.Send(sealed)
}

// closureLeak taints a captured variable inside the closure; the send
// after the call sees it.
func closureLeak(c Conn) error {
	var buf []byte
	_ = run(func() error {
		buf = deriveKey()
		return nil
	})
	return c.Send(buf) // want `key material reaches the wire`
}

// wal has a method named like the builtin append. A call to the
// builtin must not resolve to it: encodeAll would then be summarised
// before encode and lose its taint.
type wal struct{ f *os.File }

func (w *wal) append(rec engine.Record) error {
	_, err := w.f.Write(encodeAll(rec)) // want `enclave plaintext reaches the untrusted disk`
	return err
}

func encodeAll(rec engine.Record) []byte {
	return append(encode(rec), rec.Blob...)
}

// writeAll is a summarised disk sink fed by a callback: what next
// returns reaches the file.
func writeAll(f *os.File, next func() ([]byte, bool)) error {
	for {
		b, ok := next()
		if !ok {
			return nil
		}
		if _, err := f.Write(b); err != nil {
			return err
		}
	}
}

// streamUnsealed hands writeAll plaintext through the callback.
func streamUnsealed(f *os.File, recs []engine.Record) error {
	return writeAll(f, func() ([]byte, bool) { // want `enclave plaintext reaches the untrusted disk`
		if len(recs) == 0 {
			return nil, false
		}
		b := encode(recs[0])
		recs = recs[1:]
		return b, true
	})
}

// streamSealed seals inside the callback: clean.
func streamSealed(f *os.File, recs []engine.Record) error {
	return writeAll(f, func() ([]byte, bool) {
		if len(recs) == 0 {
			return nil, false
		}
		b := Seal(encode(recs[0]))
		recs = recs[1:]
		return b, true
	})
}
