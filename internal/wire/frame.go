package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds a single frame to protect against resource
// exhaustion by a malicious peer. Results larger than this must be
// chunked by the application (none of the paper's workloads come close).
const MaxFrameSize = 64 << 20

// maxHelloSize bounds a handshake frame. Until the peer has attested,
// it gets no benefit of the doubt: a legitimate hello (report + quote)
// is well under a kilobyte, so a pre-attestation length prefix beyond
// this is an attack on the receiver's memory, not a big message.
const maxHelloSize = 64 << 10

// frameHeaderLen is the length-prefix overhead of every frame.
const frameHeaderLen = 4

// maxScratchRetain caps how much scratch capacity a channel retains
// between messages. A single oversized frame (a multi-megabyte PUT) may
// still grow a transient buffer, but steady state keeps at most this
// much per channel direction.
const maxScratchRetain = 1 << 20

// ErrFrameTooLarge is returned when a peer announces a frame beyond
// the applicable size limit.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// WriteFrame writes a length-prefixed frame in one Write, so a writer
// never observes the header and payload apart. Only the handshake
// hellos use it: Channel.Send seals the ciphertext directly after a
// reserved header in its own scratch.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, frameHeaderLen+len(payload)), uint32(len(payload)))
	if _, err := w.Write(append(buf, payload...)); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadFrameInto reads one length-prefixed frame, reusing buf's backing
// array when it is large enough and allocating a bigger one otherwise.
// The returned slice aliases that backing array: it is valid only until
// the caller's next ReadFrameInto with the same buffer. Pass the
// returned slice back in (resliced to [:0] or not — only its capacity
// matters) to amortise the allocation to zero in steady state.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	return readFrameLimit(r, MaxFrameSize, buf)
}

// readFrameLimit is the frame reader core: max bounds the announced
// payload length BEFORE any allocation, so a hostile length prefix
// costs the receiver four bytes of reading and nothing else. The
// header is read into the front of the scratch buffer (a stack array
// would escape through the io.Reader interface and cost an allocation
// per frame); the payload read then overwrites it.
func readFrameLimit(r io.Reader, max uint32, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > max {
		return nil, fmt.Errorf("%w (%d bytes, limit %d)", ErrFrameTooLarge, n, max)
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("read frame payload: %w", err)
	}
	return buf, nil
}
