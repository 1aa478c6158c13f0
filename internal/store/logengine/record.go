package logengine

import (
	"encoding/binary"
	"errors"

	"speed/internal/enclave"
	storeengine "speed/internal/store/engine"
)

// errBadRecord is returned when a sealed record payload parses wrong
// after authenticating. Since the seal's AEAD already rejected
// tampering, a bad payload means a version skew or an encoder bug —
// never silent acceptance.
var errBadRecord = errors.New("logengine: malformed record payload")

// encodeRecord serialises a record's fields into the plaintext that
// gets sealed before touching disk:
//
//	owner      [32]byte
//	challenge  uint32 length + bytes
//	wrappedKey uint32 length + bytes
//	blob       uint32 length + bytes
//
// The challenge and wrapped key are key material: they exist in
// plaintext only inside enclave memory, and only the sealed form of
// this encoding is ever written out.
func encodeRecord(rec storeengine.Record) []byte {
	n := 32 + 4 + len(rec.Challenge) + 4 + len(rec.WrappedKey) + 4 + len(rec.Blob)
	out := make([]byte, 0, n)
	out = append(out, rec.Owner[:]...)
	for _, field := range [][]byte{rec.Challenge, rec.WrappedKey, rec.Blob} {
		out = binary.BigEndian.AppendUint32(out, uint32(len(field)))
		out = append(out, field...)
	}
	return out
}

// decodeRecord parses encodeRecord's output. The returned slices alias
// raw; callers that retain them must copy (raw is freshly allocated by
// Unseal in practice, so engine accessors hand them out directly).
func decodeRecord(raw []byte) (storeengine.Record, error) {
	var rec storeengine.Record
	if len(raw) < 32 {
		return rec, errBadRecord
	}
	copy(rec.Owner[:], raw[:32])
	raw = raw[32:]
	fields := make([][]byte, 3)
	for i := range fields {
		if len(raw) < 4 {
			return rec, errBadRecord
		}
		l := binary.BigEndian.Uint32(raw)
		raw = raw[4:]
		if uint64(l) > uint64(len(raw)) {
			return rec, errBadRecord
		}
		fields[i] = raw[:l:l]
		raw = raw[l:]
	}
	if len(raw) != 0 {
		return rec, errBadRecord
	}
	rec.Challenge, rec.WrappedKey, rec.Blob = fields[0], fields[1], fields[2]
	rec.BlobSize = int64(len(rec.Blob))
	return rec, nil
}

// sealRecord seals a record's encoding to the store enclave identity.
func sealRecord(enc *enclave.Enclave, rec storeengine.Record) ([]byte, error) {
	return enc.Seal(encodeRecord(rec))
}

// unsealRecord authenticates and parses a sealed record read back from
// untrusted storage.
func unsealRecord(enc *enclave.Enclave, sealed []byte) (storeengine.Record, error) {
	raw, err := enc.Unseal(sealed)
	if err != nil {
		return storeengine.Record{}, err
	}
	return decodeRecord(raw)
}
