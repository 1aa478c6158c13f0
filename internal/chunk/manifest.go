package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The manifest is what a chunked call stores under its primary tag
// instead of the result itself: the ordered list of chunk references
// (content hash + length) and the whole-result length. It is
// sealed with the call's own RCE keys under a manifest-specific derived
// function identity (see crypto.go), so only an application that owns
// the function code and input can read it — and a runtime that predates
// chunking decrypts it under the primary identity, gets ErrAuthFailed,
// and safely recomputes.
//
// Byte layout (all integers big-endian):
//
//	magic   [4]byte  "SPCM"
//	version byte     2
//	count   uint32   number of chunk references (≤ MaxManifestChunks)
//	total   uint64   whole-result length; must equal the sum of lengths
//	refs    count × (hash [32]byte | length uint32)
//
// Trust model: the manifest is authenticated (it travels inside an
// AEAD-sealed triple whose key only a holder of the call's function and
// input can derive), so the store cannot change its refs, their order,
// their lengths or Total. The chunks it references come from the
// untrusted store. A reader fills each slot of the result either from
// its in-enclave cache, which holds only bytes the enclave split or
// verified itself, keyed by chunk tag and length-checked, or from a
// fetched chunk whose plaintext has the ref's length and hash. Under
// SHA-256 collision resistance that output is the unique concatenation
// the manifest names: a store that swaps, truncates or corrupts chunks
// causes a loud verification failure, never a wrong result. So there is
// no whole-result digest: only a collision could fail one. Version 1
// carried it after Total; a v1 manifest fails DecodeManifest, and its
// reader recomputes the result and replaces the entry.

// ManifestVersion is the current manifest format version.
const ManifestVersion = 2

// MaxManifestChunks bounds one manifest's chunk count so its chunk
// fetch always fits a single batch GET (it equals wire.MaxBatchItems;
// chunk_test pins the equality without importing wire here). With the
// default geometry that caps one chunked result at count × Max = 256MiB.
const MaxManifestChunks = 4096

// refSize is the encoded size of one chunk reference.
const refSize = 32 + 4

// manifestHeaderSize is the encoded size up to the first reference.
const manifestHeaderSize = 4 + 1 + 4 + 8

var manifestMagic = [4]byte{'S', 'P', 'C', 'M'}

// ErrManifest is returned when manifest bytes fail validation.
var ErrManifest = errors.New("chunk: malformed manifest")

// Ref is one chunk reference: the chunk's content hash (which derives
// its tag and its decryption input) and its plaintext length.
type Ref struct {
	Hash   [32]byte
	Length uint32
}

// Manifest describes one chunked result.
type Manifest struct {
	// Total is the whole-result length in bytes.
	Total uint64
	// Refs lists the chunks in result order.
	Refs []Ref
}

// BuildManifest hashes the chunks (in order, as produced by Split) and
// assembles their manifest. It fails when the chunk count exceeds
// MaxManifestChunks — the caller should fall back to the whole-result
// path for such outsized results.
func BuildManifest(chunks [][]byte) (Manifest, error) {
	if len(chunks) > MaxManifestChunks {
		return Manifest{}, fmt.Errorf("chunk: %d chunks exceed %d per manifest", len(chunks), MaxManifestChunks)
	}
	m := Manifest{Refs: make([]Ref, len(chunks))}
	for i, c := range chunks {
		m.Refs[i] = Ref{Hash: Hash(c), Length: uint32(len(c))}
		m.Total += uint64(len(c))
	}
	return m, nil
}

// Encode serialises the manifest.
func (m Manifest) Encode() []byte {
	return m.AppendEncode(make([]byte, 0, manifestHeaderSize+len(m.Refs)*refSize))
}

// AppendEncode serialises the manifest into buf, following the append
// convention.
func (m Manifest) AppendEncode(buf []byte) []byte {
	buf = append(buf, manifestMagic[:]...)
	buf = append(buf, ManifestVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Refs)))
	buf = binary.BigEndian.AppendUint64(buf, m.Total)
	for _, r := range m.Refs {
		buf = append(buf, r.Hash[:]...)
		buf = binary.BigEndian.AppendUint32(buf, r.Length)
	}
	return buf
}

// DecodeManifest parses and validates manifest bytes. It is strict:
// wrong magic, unknown version, oversized count, trailing bytes or a
// total that disagrees with the sum of the chunk lengths all fail —
// a manifest travels sealed, so any mismatch is corruption or a format
// bug, never benign.
func DecodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	if len(b) < manifestHeaderSize {
		return m, fmt.Errorf("%w: %d bytes", ErrManifest, len(b))
	}
	if [4]byte(b[:4]) != manifestMagic {
		return m, fmt.Errorf("%w: bad magic", ErrManifest)
	}
	if b[4] != ManifestVersion {
		return m, fmt.Errorf("%w: unknown version %d", ErrManifest, b[4])
	}
	count := binary.BigEndian.Uint32(b[5:9])
	if count > MaxManifestChunks {
		return m, fmt.Errorf("%w: %d chunks exceed %d", ErrManifest, count, MaxManifestChunks)
	}
	m.Total = binary.BigEndian.Uint64(b[9:17])
	b = b[manifestHeaderSize:]
	if len(b) != int(count)*refSize {
		return Manifest{}, fmt.Errorf("%w: body %d bytes for %d refs", ErrManifest, len(b), count)
	}
	m.Refs = make([]Ref, count)
	var sum uint64
	for i := range m.Refs {
		copy(m.Refs[i].Hash[:], b[:32])
		m.Refs[i].Length = binary.BigEndian.Uint32(b[32:36])
		sum += uint64(m.Refs[i].Length)
		b = b[refSize:]
	}
	if sum != m.Total {
		return Manifest{}, fmt.Errorf("%w: lengths sum to %d, total says %d", ErrManifest, sum, m.Total)
	}
	return m, nil
}
