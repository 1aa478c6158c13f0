package wire

import (
	"encoding/binary"
	"fmt"
)

// ProtocolVersion is the one protocol version this build speaks. Each
// side presents it in byte 32 of the hello's key-exchange data (the
// first 32 bytes are the X25519 public key), where the attestation
// report MAC covers it, and refuses — inside the handshake — a peer
// presenting anything else. There is no negotiation: the version is
// equal or the session does not exist.
const ProtocolVersion = 5

// Envelope layout, the form of every message frame: the 8-byte
// big-endian request ID, a flags byte, and — when the trace flag is
// set — the 16-byte trace ID and 8-byte parent span ID, followed by the
// marshalled message. Requests and their responses carry the same ID;
// the client mux correlates them, so responses may arrive out of
// order. Unsampled envelopes encode and decode with zero allocations.
const (
	envFlagTrace = 1 << 0

	envelopeHeaderLen = 8 + 1
	traceContextLen   = 16 + 8
)

// AppendEnvelope serialises a message frame into buf, returning the
// extended slice. The trace context is carried only when tc.Valid().
// Channel.SendEnvelopeTrace uses it with the channel's marshal scratch,
// so framing allocates nothing in steady state.
func AppendEnvelope(buf []byte, id uint64, tc TraceContext, m Message) []byte {
	buf = binary.BigEndian.AppendUint64(buf, id)
	if tc.Valid() {
		buf = append(buf, envFlagTrace)
		buf = append(buf, tc.ID[:]...)
		buf = binary.BigEndian.AppendUint64(buf, tc.Parent)
	} else {
		buf = append(buf, 0)
	}
	return AppendMarshal(buf, m)
}

// UnmarshalEnvelope parses a message frame produced by AppendEnvelope.
// The returned message aliases b exactly like Unmarshal. Unknown flag
// bits and an all-zero trace ID are rejected, so every accepted frame
// has exactly one encoding.
func UnmarshalEnvelope(b []byte) (uint64, TraceContext, Message, error) {
	id, tc, rest, err := splitEnvelope(b)
	if err != nil {
		return 0, TraceContext{}, nil, err
	}
	m, err := Unmarshal(rest)
	if err != nil {
		return 0, TraceContext{}, nil, err
	}
	return id, tc, m, nil
}

// splitEnvelope is UnmarshalEnvelope up to the message bytes, which it
// returns undecoded (aliasing b). It allocates nothing.
func splitEnvelope(b []byte) (uint64, TraceContext, []byte, error) {
	if len(b) < envelopeHeaderLen {
		return 0, TraceContext{}, nil, fmt.Errorf("%w: short envelope (%d bytes)", ErrMalformed, len(b))
	}
	id := binary.BigEndian.Uint64(b)
	flags := b[envelopeHeaderLen-1]
	rest := b[envelopeHeaderLen:]
	var tc TraceContext
	if flags&^byte(envFlagTrace) != 0 {
		return 0, TraceContext{}, nil, fmt.Errorf("%w: unknown envelope flags %#x", ErrMalformed, flags)
	}
	if flags&envFlagTrace != 0 {
		if len(rest) < traceContextLen {
			return 0, TraceContext{}, nil, fmt.Errorf("%w: short trace context (%d bytes)", ErrMalformed, len(rest))
		}
		copy(tc.ID[:], rest[:16])
		tc.Parent = binary.BigEndian.Uint64(rest[16:])
		tc.Sampled = true
		if !tc.Valid() {
			return 0, TraceContext{}, nil, fmt.Errorf("%w: zero trace ID", ErrMalformed)
		}
		rest = rest[traceContextLen:]
	}
	return id, tc, rest, nil
}
