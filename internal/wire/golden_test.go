package wire

import (
	"encoding/hex"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
)

// goldenTag is the tag b, b+1, … b+31.
func goldenTag(b byte) mle.Tag {
	var t mle.Tag
	for i := range t {
		t[i] = b + byte(i)
	}
	return t
}

// TestGoldenEncodings pins the wire bytes to vectors captured from the
// commit before the single kinds and the count prefixes were deleted
// (019a280, protocol v2): a message of one item is byte-for-byte that
// commit's single-kind encoding, kind byte included, and a message of n
// items has the body of that commit's batch encoding minus its four
// count bytes. This is what keeps wire_bytes_per_result_byte where it
// was for single calls and four bytes per message lower for batches.
func TestGoldenEncodings(t *testing.T) {
	s1 := mle.Sealed{Challenge: []byte("chal"), WrappedKey: []byte("wrapped-key"), Blob: []byte("sealed result bytes")}
	s2 := mle.Sealed{Challenge: []byte{1, 2}, WrappedKey: []byte{3}, Blob: []byte{4, 5, 6}}
	const rejection = "quota exceeded"

	// parent is the old commit's full Marshal output; skip is how many
	// bytes of it after the kind byte are the count prefix that no
	// longer exists (0 for the single kinds, 4 for the batch kinds).
	for _, tc := range []struct {
		name   string
		msg    Message
		parent string
		skip   int
	}{
		{"GetRequest{t}", GetRequest{Tags: []mle.Tag{goldenTag(1)}},
			"010102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20", 0},
		{"GetResponse hit", GetResponse{Results: []GetResult{{Found: true, Sealed: s1}}},
			"0201000000046368616c0000000b777261707065642d6b6579000000137365616c656420726573756c74206279746573", 0},
		{"GetResponse miss", GetResponse{Results: []GetResult{{}}},
			"0200000000000000000000000000", 0},
		{"PutRequest", PutRequest{Items: []PutItem{{Tag: goldenTag(2), Sealed: s1}}},
			"0302030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202100000000046368616c0000000b777261707065642d6b6579000000137365616c656420726573756c74206279746573", 0},
		{"PutRequest replace", PutRequest{Items: []PutItem{{Tag: goldenTag(2), Sealed: s1, Replace: true}}},
			"0302030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202101000000046368616c0000000b777261707065642d6b6579000000137365616c656420726573756c74206279746573", 0},
		{"PutResponse OK", PutResponse{Results: []PutResult{{OK: true}}},
			"040100000000", 0},
		{"PutResponse rejection", PutResponse{Results: []PutResult{{Err: rejection}}},
			"04000000000e71756f7461206578636565646564", 0},
		{"BatchGetRequest 3", GetRequest{Tags: []mle.Tag{goldenTag(1), goldenTag(2), goldenTag(3)}},
			"05000000030102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2002030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122", 4},
		{"BatchGetResponse 3", GetResponse{Results: []GetResult{{Found: true, Sealed: s1}, {}, {Found: true, Sealed: s2}}},
			"060000000301000000046368616c0000000b777261707065642d6b6579000000137365616c656420726573756c742062797465730000000000000000000000000001000000020102000000010300000003040506", 4},
		{"BatchPutRequest 2", PutRequest{Items: []PutItem{{Tag: goldenTag(2), Sealed: s1}, {Tag: goldenTag(3), Sealed: s2, Replace: true}}},
			"070000000202030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202100000000046368616c0000000b777261707065642d6b6579000000137365616c656420726573756c74206279746573030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212201000000020102000000010300000003040506", 4},
		{"BatchPutResponse 3", PutResponse{Results: []PutResult{{OK: true}, {Err: rejection}, {OK: true}}},
			"08000000030100000000000000000e71756f74612065786365656465640100000000", 4},
	} {
		parent, err := hex.DecodeString(tc.parent)
		if err != nil {
			t.Fatalf("%s: bad vector: %v", tc.name, err)
		}
		got := Marshal(tc.msg)
		if tc.skip == 0 {
			// Single kinds: identical down to the kind byte.
			if hex.EncodeToString(got) != tc.parent {
				t.Errorf("%s:\n got  %x\n want %x", tc.name, got, parent)
			}
			continue
		}
		if want := parent[1+tc.skip:]; hex.EncodeToString(got[1:]) != hex.EncodeToString(want) {
			t.Errorf("%s body:\n got  %x\n want %x (the old batch body minus its count)", tc.name, got[1:], want)
		}
		if len(got) != len(parent)-tc.skip {
			t.Errorf("%s is %d bytes, want the old %d minus %d", tc.name, len(got), len(parent), tc.skip)
		}
	}

	// The envelope every session used at that commit (request ID, flags
	// byte, optional trace context) is the only envelope now.
	sampled := TraceContext{Parent: 0x0102030405060708, Sampled: true}
	for i := range sampled.ID {
		sampled.ID[i] = 0xa0 + byte(i)
	}
	req := GetRequest{Tags: []mle.Tag{goldenTag(1)}}
	for _, tc := range []struct {
		name string
		tc   TraceContext
		want string
	}{
		{"unsampled", TraceContext{},
			"000000000000000700010102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20"},
		{"sampled", sampled,
			"000000000000000701a0a1a2a3a4a5a6a7a8a9aaabacadaeaf0102030405060708010102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20"},
	} {
		if got := AppendEnvelope(nil, 7, tc.tc, req); hex.EncodeToString(got) != tc.want {
			t.Errorf("%s envelope:\n got  %x\n want %s", tc.name, got, tc.want)
		}
	}
}

// TestGoldenHello pins the handshake hello's bytes: the report, then
// the quote, each behind a 4-byte big-endian length. A hello made by an
// enclave cannot be a golden vector (its quote's ECDSA signature draws
// a fresh nonce), so this one is built from a fixed report and quote.
func TestGoldenHello(t *testing.T) {
	var data [64]byte
	share := goldenTag(0x40)
	copy(data[:], share[:])
	data[32] = 4 // protocol version
	r := enclave.Report{Measurement: enclave.Measurement(goldenTag(0)), Target: enclave.Measurement(goldenTag(0x20)),
		Data: data, MAC: [32]byte(goldenTag(0x80))}
	q := enclave.Quote{Measurement: r.Measurement, Data: data, PlatformKey: []byte("pkix"), Sig: []byte("sig")}
	const (
		measurement = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
		target      = "202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f"
		attested    = "404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f" +
			"0400000000000000000000000000000000000000000000000000000000000000"
		mac = "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
	)
	want := "000000a0" + measurement + target + attested + mac +
		"0000006f" + measurement + attested + "00000004" + "706b6978" + "00000003" + "736967"
	if got := hex.EncodeToString(appendHello(nil, r, q)); got != want {
		t.Errorf("hello:\n got  %s\n want %s", got, want)
	}
}
