package logengine

import (
	"encoding/binary"
	"errors"
	"slices"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// errBadRecord is returned when a sealed record payload parses wrong
// after authenticating. Since the seal's AEAD already rejected
// tampering, a bad payload means a version skew or an encoder bug —
// never silent acceptance.
var errBadRecord = errors.New("logengine: malformed record payload")

// appendRecord appends a record's fields, encoded as the plaintext
// that gets sealed before touching disk, to dst:
//
//	owner      [32]byte
//	challenge  uint32 length + bytes
//	wrappedKey uint32 length + bytes
//	blob       uint32 length + bytes
//
// The challenge and wrapped key are key material: they exist in
// plaintext only inside enclave memory: sealRecord encodes them into
// the buffer it seals in place, so only the sealed form is written out.
func appendRecord(dst []byte, rec storeengine.Record) []byte {
	dst = append(dst, rec.Owner[:]...)
	for _, field := range [][]byte{rec.Challenge, rec.WrappedKey, rec.Blob} {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(field)))
		dst = append(dst, field...)
	}
	return dst
}

// recordLen is the length of appendRecord's encoding of rec.
func recordLen(rec storeengine.Record) int {
	return 32 + 4 + len(rec.Challenge) + 4 + len(rec.WrappedKey) + 4 + len(rec.Blob)
}

// decodeRecord parses appendRecord's output. The returned slices alias
// raw; callers that retain them must copy (raw is freshly allocated by
// Unseal in practice, so engine accessors hand them out directly).
func decodeRecord(raw []byte) (storeengine.Record, error) {
	var rec storeengine.Record
	if len(raw) < 32 {
		return rec, errBadRecord
	}
	copy(rec.Owner[:], raw[:32])
	raw = raw[32:]
	for _, field := range []*[]byte{&rec.Challenge, &rec.WrappedKey, &rec.Blob} {
		if len(raw) < 4 {
			return rec, errBadRecord
		}
		l := binary.BigEndian.Uint32(raw)
		raw = raw[4:]
		if uint64(l) > uint64(len(raw)) {
			return rec, errBadRecord
		}
		*field, raw = raw[:l:l], raw[l:]
	}
	if len(raw) != 0 {
		return rec, errBadRecord
	}
	rec.BlobSize = int64(len(rec.Blob))
	return rec, nil
}

// adLen is the length of a record's associated data (recordAD).
const adLen = len(enclave.Measurement{}) + 1 + len(mle.Tag{})

// recordAD is the associated data a record is sealed under, encoded
// into buf: the store enclave's measurement, the WAL op and the tag. A
// WAL frame and a segment record carry the op and tag in plaintext in
// front of the sealed record, so the sealed bytes move from one to the
// other unchanged, but a record moved under another tag or op fails to
// unseal.
func recordAD(buf *[adLen]byte, m enclave.Measurement, op byte, tag *mle.Tag) []byte {
	n := copy(buf[:], m[:])
	buf[n] = op
	copy(buf[n+1:], tag[:])
	return buf[:]
}

// sealRecord appends to dst, sealed to the store enclave identity under
// ad, appendRecord(rec) (nothing when rec is nil). The plaintext is
// encoded after the nonce slot and sealed there in place.
func sealRecord(enc *enclave.Enclave, dst, ad []byte, rec *storeengine.Record) ([]byte, error) {
	n, at := 0, len(dst)
	if rec != nil {
		n = recordLen(*rec)
	}
	dst = slices.Grow(dst, enclave.SealOverhead+n)[:at+enclave.SealNonceSize]
	if rec != nil {
		dst = appendRecord(dst, *rec)
	}
	return enc.Seal(dst[:at], dst[at+enclave.SealNonceSize:], ad)
}

// unsealRecord authenticates and parses a put's sealed record read back
// from untrusted storage under tag.
func unsealRecord(enc *enclave.Enclave, tag mle.Tag, sealed []byte) (storeengine.Record, error) {
	var ad [adLen]byte
	raw, err := enc.Unseal(nil, sealed, recordAD(&ad, enc.Measurement(), walOpPut, &tag))
	if err != nil {
		return storeengine.Record{}, err
	}
	return decodeRecord(raw)
}
