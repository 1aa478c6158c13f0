package wire

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// Distributed-trace context propagation. A trace context (16-byte trace
// ID, 8-byte parent span ID) rides inside message envelopes as an
// optional field so a sampled Execute can be followed across the dedup
// runtime, the cluster router and every store node it touches.
//
// Trust boundary: the context travels outside the MLE-sealed result
// payload but inside the channel AEAD — the network sees nothing, the
// peer enclave sees (and must be able to see) the IDs, and the sealed
// deduplication payload never depends on them.

// TraceContext is the wire form of one request's position in a
// distributed trace. The zero value means "not sampled": no context is
// carried on the wire and the request costs nothing to trace
// machinery.
type TraceContext struct {
	// ID is the 16-byte trace ID shared by every span of the trace.
	ID [16]byte
	// Parent is the span ID of the sender's span, which receivers use
	// as the ParentID of the spans they record.
	Parent uint64
	// Sampled marks the context as live; only sampled contexts are
	// encoded.
	Sampled bool
}

// Valid reports whether the context is a live sampled trace that
// should be propagated and recorded.
func (tc TraceContext) Valid() bool { return tc.Sampled && tc.ID != ([16]byte{}) }

// TraceIDHex returns the hex form of the trace ID used as the
// telemetry TraceID and the /debug/trace?id= key.
func (tc TraceContext) TraceIDHex() string { return hex.EncodeToString(tc.ID[:]) }

// SpanIDHex formats a span ID the way telemetry records it.
func SpanIDHex(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// NewTraceID returns a random 16-byte trace ID. It is called once per
// sampled request, never on the unsampled hot path.
func NewTraceID() [16]byte {
	var id [16]byte
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand failure is unrecoverable for key material but a
		// trace ID only needs uniqueness; fall back to the span
		// sequence.
		binary.BigEndian.PutUint64(id[:8], NewSpanID())
		binary.BigEndian.PutUint64(id[8:], NewSpanID())
	}
	return id
}

// spanSeq seeds span IDs with process-random state so IDs from
// different nodes do not collide; each NewSpanID advances it by a
// 64-bit odd constant (full-period, so high bits churn too).
var spanSeq = func() *atomic.Uint64 {
	var v atomic.Uint64
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		v.Store(binary.BigEndian.Uint64(b[:]))
	}
	return &v
}()

// NewSpanID returns a process-unique nonzero span ID (zero is reserved
// for "no parent").
func NewSpanID() uint64 {
	for {
		if id := spanSeq.Add(0x9e3779b97f4a7c15); id != 0 {
			return id
		}
	}
}
