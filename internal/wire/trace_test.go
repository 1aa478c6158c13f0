package wire

import (
	"bytes"
	"testing"

	"speed/internal/mle"
)

func TestTraceEnvelopeRoundTrip(t *testing.T) {
	msg := GetRequest{Tags: []mle.Tag{{1, 2, 3}}}
	tc := TraceContext{Parent: 0xfeedface, Sampled: true}
	copy(tc.ID[:], "0123456789abcdef")

	sampled := AppendEnvelope(nil, 99, tc, msg)
	id, got, m, err := UnmarshalEnvelope(sampled)
	if err != nil {
		t.Fatalf("sampled round trip: %v", err)
	}
	if id != 99 || got != tc {
		t.Fatalf("sampled round trip: id=%d tc=%+v, want 99 %+v", id, got, tc)
	}
	if m.Kind() != KindGetRequest {
		t.Fatalf("message kind %v, want KindGetRequest", m.Kind())
	}

	unsampled := AppendEnvelope(nil, 7, TraceContext{}, msg)
	id, got, m, err = UnmarshalEnvelope(unsampled)
	if err != nil {
		t.Fatalf("unsampled round trip: %v", err)
	}
	if id != 7 || got.Valid() {
		t.Fatalf("unsampled round trip: id=%d tc=%+v, want 7 and invalid context", id, got)
	}
	if m.Kind() != KindGetRequest {
		t.Fatalf("message kind %v, want KindGetRequest", m.Kind())
	}

	// An unsampled envelope is request ID, one flags byte and the
	// message; sampling adds exactly the trace context.
	if want := 8 + 1 + len(Marshal(msg)); len(unsampled) != want {
		t.Fatalf("unsampled envelope is %d bytes, want %d", len(unsampled), want)
	}
	if len(sampled) != len(unsampled)+traceContextLen {
		t.Fatalf("sampled envelope is %d bytes, want unsampled+%d", len(sampled), traceContextLen)
	}
}

func TestTraceEnvelopeMalformed(t *testing.T) {
	msg := GetRequest{Tags: []mle.Tag{{9}}}
	valid := AppendEnvelope(nil, 1, TraceContext{ID: [16]byte{1}, Sampled: true}, msg)
	cases := map[string][]byte{
		"empty":               {},
		"short header":        valid[:envelopeHeaderLen-1],
		"short trace context": valid[:envelopeHeaderLen+3],
		"unknown flags": func() []byte {
			b := AppendEnvelope(nil, 1, TraceContext{}, msg)
			b[envelopeHeaderLen-1] = 0x80
			return b
		}(),
		"zero trace ID": func() []byte {
			b := bytes.Clone(valid)
			clear(b[envelopeHeaderLen : envelopeHeaderLen+16])
			return b
		}(),
	}
	for name, b := range cases {
		if _, _, _, err := UnmarshalEnvelope(b); err == nil {
			t.Errorf("%s: UnmarshalEnvelope accepted malformed input", name)
		}
	}
}

// TestTracedEnvelopeUnsampledZeroAlloc pins the hard constraint of
// carrying trace contexts in every envelope: requests that were NOT
// sampled (the overwhelming steady state) still encode, send, receive
// and split with zero heap allocations per round trip.
func TestTracedEnvelopeUnsampledZeroAlloc(t *testing.T) {
	client, server := hotChannelPair(t)
	var req Message = GetRequest{Tags: []mle.Tag{{1, 2, 3}}}
	var resp Message = GetResponse{Results: []GetResult{{Found: true, Sealed: getHitSealed()}}}

	roundTrip := func() {
		if err := client.SendEnvelope(3, req); err != nil {
			t.Fatalf("send request: %v", err)
		}
		payload, err := server.Recv()
		if err != nil {
			t.Fatalf("server recv: %v", err)
		}
		id, tc, _, err := splitEnvelope(payload)
		if err != nil {
			t.Fatalf("split request: %v", err)
		}
		if id != 3 || tc.Valid() {
			t.Fatalf("request id=%d tc=%+v, want 3 and no context", id, tc)
		}
		if err := server.SendEnvelopeTrace(3, TraceContext{}, resp); err != nil {
			t.Fatalf("send response: %v", err)
		}
		payload, err = client.Recv()
		if err != nil {
			t.Fatalf("client recv: %v", err)
		}
		if _, _, _, err := splitEnvelope(payload); err != nil {
			t.Fatalf("split response: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Errorf("unsampled traced envelope round trip allocates %v times per op, want 0", n)
	}
}

func TestSpanIDs(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 {
			t.Fatal("NewSpanID returned zero (reserved for no-parent)")
		}
		if seen[id] {
			t.Fatalf("NewSpanID repeated %#x within 1000 draws", id)
		}
		seen[id] = true
	}
	if NewTraceID() == ([16]byte{}) {
		t.Fatal("NewTraceID returned the zero ID")
	}
	if got := SpanIDHex(0x0102030405060708); got != "0102030405060708" {
		t.Fatalf("SpanIDHex = %q", got)
	}
	tc := TraceContext{ID: [16]byte{0xAB}, Sampled: true}
	if got := tc.TraceIDHex(); got != "ab000000000000000000000000000000" {
		t.Fatalf("TraceIDHex = %q", got)
	}
}

// FuzzUnmarshalEnvelopeTrace is the encode-first direction of
// FuzzUnmarshalEnvelope: any request ID and trace context survive the
// envelope exactly, and a context is carried iff it is Valid.
func FuzzUnmarshalEnvelopeTrace(f *testing.F) {
	f.Add(uint64(0), []byte{}, uint64(0), false)
	f.Add(uint64(1), []byte{2}, uint64(3), true)
	f.Add(^uint64(0), bytes.Repeat([]byte{0xFF}, 16), ^uint64(0), false)
	f.Fuzz(func(t *testing.T, id uint64, traceID []byte, parent uint64, sampled bool) {
		tc := TraceContext{Parent: parent, Sampled: sampled}
		copy(tc.ID[:], traceID)
		msg := PutRequest{Items: []PutItem{{Tag: mle.Tag{4}, Sealed: mle.Sealed{Blob: []byte{5}}}}}
		frame := AppendEnvelope(nil, id, tc, msg)
		id2, tc2, m2, err := UnmarshalEnvelope(frame)
		if err != nil {
			t.Fatalf("UnmarshalEnvelope of an encoded envelope: %v", err)
		}
		if !tc.Valid() {
			tc = TraceContext{}
		}
		if id2 != id || tc2 != tc || !bytes.Equal(Marshal(m2), Marshal(msg)) {
			t.Fatalf("envelope changed across round trip: (%d,%+v) -> (%d,%+v,%v)", id, tc, id2, tc2, m2)
		}
	})
}
