package wire

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
)

// FuzzUnmarshal: arbitrary bytes must never panic the message decoder,
// and the count-free format is canonical — every accepted input
// re-encodes to exactly the bytes it was decoded from, so nothing a
// decoder accepts (trailing garbage, item MaxBatchItems+1) can hide
// outside the decoded message.
func FuzzUnmarshal(f *testing.F) {
	blob := mle.Sealed{Blob: []byte("b")}
	f.Add([]byte{})
	f.Add(Marshal(GetRequest{}))
	f.Add(Marshal(GetRequest{Tags: []mle.Tag{{1, 2, 3}}}))
	f.Add(Marshal(GetRequest{Tags: []mle.Tag{{1}, {2}}}))
	f.Add(Marshal(GetResponse{Results: []GetResult{
		{Found: true, Sealed: mle.Sealed{
			Challenge:  []byte("rrrr"),
			WrappedKey: []byte("kkkk"),
			Blob:       []byte("blob"),
		}},
		{Found: false},
	}}))
	f.Add(Marshal(PutRequest{Items: []PutItem{{Tag: mle.Tag{9}, Replace: true, Sealed: blob}, {Tag: mle.Tag{3}, Sealed: blob}}}))
	f.Add(Marshal(PutResponse{Results: []PutResult{{OK: true}, {OK: false, Err: "quota"}}}))
	f.Add(Marshal(HasRequest{Tags: []mle.Tag{{7}}}))
	f.Add(Marshal(HasResponse{Present: []bool{true, false}}))
	f.Add(retiredSyncPullRequest)
	f.Add(retiredSyncPullResponse)
	f.Add(append(Marshal(GetResponse{Results: []GetResult{{}}}), 0xFF))
	f.Add(repeatItem(HasResponse{Present: []bool{true}}, MaxBatchItems+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		if again := Marshal(msg); !bytes.Equal(again, data) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", data, again)
		}
		if n := itemCount(msg); n > MaxBatchItems {
			t.Fatalf("%v decoded %d items, limit %d", msg.Kind(), n, MaxBatchItems)
		}
	})
}

// itemCount is the length of a message's item sequence.
func itemCount(m Message) int {
	switch v := m.(type) {
	case GetRequest:
		return len(v.Tags)
	case GetResponse:
		return len(v.Results)
	case PutRequest:
		return len(v.Items)
	case PutResponse:
		return len(v.Results)
	case HasRequest:
		return len(v.Tags)
	case HasResponse:
		return len(v.Present)
	}
	return 0
}

// FuzzParseHello: arbitrary handshake frames must never panic.
func FuzzParseHello(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	// A structurally valid hello, so mutations explore the report, the
	// quote and the version byte.
	p := enclave.NewPlatform(enclave.Config{})
	if e, err := p.Create("fuzz", []byte("code")); err == nil {
		if priv, err := ecdh.X25519().GenerateKey(rand.Reader); err == nil {
			if h, err := makeHello(e, enclave.Measurement{}, helloData(priv)); err == nil {
				f.Add(h.marshal())
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = parseHello(data)
	})
}

// FuzzUnmarshalEnvelope: arbitrary frames must never panic, and the
// envelope — like the messages inside it — is canonical: an accepted
// frame re-encodes to the same bytes.
func FuzzUnmarshalEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEnvelope(nil, 0, TraceContext{}, GetRequest{Tags: []mle.Tag{{1}}}))
	f.Add(AppendEnvelope(nil, ^uint64(0), TraceContext{}, GetRequest{Tags: []mle.Tag{{2}, {3}}}))
	f.Add(AppendEnvelope(nil, 42, TraceContext{ID: [16]byte{2}, Parent: 3, Sampled: true},
		PutResponse{Results: []PutResult{{OK: true}}}))
	f.Add(append(AppendEnvelope(nil, 1, TraceContext{}, HasResponse{Present: []bool{true}}), 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, tc, msg, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		if again := AppendEnvelope(nil, id, tc, msg); !bytes.Equal(again, data) {
			t.Fatalf("accepted envelope is not canonical:\n in  %x\n out %x", data, again)
		}
	})
}
