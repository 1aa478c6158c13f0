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
	f.Add(retiredSyncPullRequest)
	f.Add(retiredSyncPullResponse)
	f.Add(append(Marshal(GetResponse{Results: []GetResult{{}}}), 0xFF))
	f.Add(retiredProbeRequest)
	f.Add(retiredProbeResponse)
	f.Add(repeatItem(PutResponse{Results: []PutResult{{OK: true}}}, MaxBatchItems+1))
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
	}
	return 0
}

// FuzzParseHello: arbitrary handshake frames must never panic, and
// the hello is canonical: an accepted frame re-encodes to its bytes.
func FuzzParseHello(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	// A structurally valid hello, so mutations explore the report, the
	// quote and the version byte.
	p := enclave.NewPlatform(enclave.Config{})
	if e, err := p.Create("fuzz", []byte("code")); err == nil {
		if priv, err := ecdh.X25519().GenerateKey(rand.Reader); err == nil {
			if q, err := e.Quote(helloData(priv)); err == nil {
				f.Add(appendHello(nil, e.Report(enclave.Measurement{}, helloData(priv)), q))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, q, err := parseHello(data)
		if err != nil {
			return
		}
		if again := appendHello(nil, r, q); !bytes.Equal(again, data) {
			t.Fatalf("accepted hello is not canonical:\n in  %x\n out %x", data, again)
		}
	})
}

// FuzzServerHandshake: whatever a client sends as its hello,
// ServerHandshakeTrust, with and without a trust set, never panics and
// returns a channel only for a hello whose report the enclave here
// made for the server or, under the trust set, whose quote it made.
// Byte mutations cannot forge a MAC or a signature, so any other
// accepted hello is a broken check.
func FuzzServerHandshake(f *testing.F) {
	p := enclave.NewPlatform(enclave.Config{})
	app, err := p.Create("app", []byte("app code"))
	if err != nil {
		f.Fatal(err)
	}
	st, err := p.Create("store", []byte("store code"))
	if err != nil {
		f.Fatal(err)
	}
	reports, quotes := map[enclave.Report]bool{}, map[string]bool{}
	for _, target := range []enclave.Measurement{st.Measurement(), {}} { // the report verifies, or only the quote
		c, s := bufPipe()
		if _, err := sendHello(c, app, target); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(s.r.Bytes()))
		frame, _ := readFrameLimit(s.r, maxHelloSize, nil)
		r, q, _ := parseHello(frame)
		reports[r] = target == st.Measurement()
		quotes[string(q.Marshal())] = true
	}
	f.Add([]byte{0x01, 0x00, 0x00, 0x00}) // 16 MiB announced
	trusted := &Trust{PlatformKeys: [][]byte{p.AttestationPublicKey()}}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, trust := range []*Trust{nil, trusted} {
			c, s := bufPipe()
			c.w.Write(in)
			ch, err := ServerHandshakeTrust(s, st, nil, trust)
			if err != nil {
				continue
			}
			frame, _ := readFrameLimit(bytes.NewReader(in), maxHelloSize, nil)
			r, q, _ := parseHello(frame)
			if ch.Peer() != app.Measurement() || !reports[r] && !(trust != nil && quotes[string(q.Marshal())]) {
				t.Fatalf("trust %v: channel to %x for a hello the app enclave never made: %x", trust != nil, ch.Peer(), in)
			}
		}
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
	f.Add(append(AppendEnvelope(nil, 1, TraceContext{}, PutResponse{Results: []PutResult{{OK: true}}}), 0xFF))
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
