package wire

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"speed/internal/enclave"
	"speed/internal/mle"
)

// The secure channel between a DedupRuntime and the ResultStore. The
// handshake performs an X25519 key exchange in which each side's
// ephemeral public key is bound to its enclave identity by a local
// attestation report (Section II-B: "the integrity of an application is
// correctly verified ... by the attestation mechanism of Intel SGX").
// Traffic keys are derived with an HMAC-SHA-256 extract-and-expand KDF
// and every frame is protected with AES-128-GCM under a per-direction
// counter nonce.
//
// Hot-path memory discipline (see DESIGN.md): each direction owns one
// scratch buffer per frame. SendEnvelope marshals the envelope straight
// into the send scratch behind the frame header and seals it there in
// place; Recv reads a frame into the receive scratch and opens it in
// place. So the steady-state Send/Recv pair makes zero heap allocations
// and touches each frame's bytes once per side. The payload returned by
// Recv aliases the receive scratch and is valid only until the next
// Recv, unless the reader calls Detach: then the frame is the reader's
// and the next Recv reads into a fresh scratch. The channel sets no
// deadline; a connection's timeouts are its owner's Watchdog.

// ErrChannelAuth is returned when a channel frame fails authentication
// or arrives out of sequence. The error is terminal for the channel:
// the receive counter (and possibly the key ratchet) has already
// advanced, so subsequent frames cannot resynchronize — callers must
// Close the channel and re-handshake.
var ErrChannelAuth = errors.New("wire: channel authentication failed")

// ErrPeerRejected is returned by handshakes when the attested peer is
// not acceptable: the wrong measurement, or a protocol version other
// than ProtocolVersion.
var ErrPeerRejected = errors.New("wire: peer enclave rejected")

// rekeyInterval is the number of frames after which each direction's
// traffic key is ratcheted forward (key' = KDF(key)), limiting the
// blast radius of a key compromise to at most one interval of past
// traffic (forward secrecy within a session).
const rekeyInterval = 1 << 16

// trafficKeySize is the AES-128-GCM per-direction traffic key size.
const trafficKeySize = 16

// Channel is an established secure channel. Send and Recv are each
// internally serialised, so one goroutine may send while another
// receives, but the request/response pairing discipline is up to the
// caller.
type Channel struct {
	conn io.ReadWriteCloser
	peer enclave.Measurement

	// rekeyEvery is rekeyInterval, overridable in tests.
	rekeyEvery uint64

	// sendBuf is the frame assembly scratch (4-byte header + sealed
	// ciphertext, one contiguous write); sendNonce is the counter nonce
	// scratch (a stack array would escape through the cipher.AEAD
	// interface and cost an allocation per frame). Both are guarded by
	// sendMu and never escape the channel.
	sendMu    sync.Mutex
	send      cipher.AEAD
	sendKey   []byte
	sendSeq   uint64
	sendBuf   []byte
	sendNonce [12]byte

	// recvBuf is the frame read + in-place decrypt scratch, guarded by
	// recvMu. Payloads returned by Recv alias it until Detach gives it
	// away and points it at recvHdr, room for the next length prefix
	// only, so the next frame gets a buffer of exactly its size. rd,
	// made at the first Recv (the handshake reads its hellos from conn),
	// buffers conn.
	recvMu    sync.Mutex
	rd        *bufio.Reader
	recv      cipher.AEAD
	recvKey   []byte
	recvSeq   uint64
	recvBuf   []byte
	recvHdr   [frameHeaderLen]byte
	recvNonce [12]byte

	// Wire-level byte accounting (frame payloads plus the 4-byte
	// length prefix), for telemetry. Frames that fail authentication
	// are accounted separately: bytesIn counts only authenticated
	// traffic, so hit-path byte telemetry is never inflated by an
	// active attacker's garbage.
	bytesOut      atomic.Int64
	bytesIn       atomic.Int64
	authFails     atomic.Int64
	bytesAuthFail atomic.Int64
}

// Peer returns the attested measurement of the remote enclave.
func (c *Channel) Peer() enclave.Measurement { return c.peer }

// BytesSent reports the total bytes written to the transport by Send,
// including framing overhead but excluding the handshake.
func (c *Channel) BytesSent() int64 { return c.bytesOut.Load() }

// BytesReceived reports the total bytes consumed from the transport by
// Recv that passed authentication, including framing overhead but
// excluding the handshake. Bytes of frames that failed authentication
// are reported by AuthFailBytes instead.
func (c *Channel) BytesReceived() int64 { return c.bytesIn.Load() }

// AuthFailures reports the number of received frames that failed
// AEAD authentication.
func (c *Channel) AuthFailures() int64 { return c.authFails.Load() }

// AuthFailBytes reports the total bytes (payload plus framing) of
// received frames that failed authentication.
func (c *Channel) AuthFailBytes() int64 { return c.bytesAuthFail.Load() }

// Close closes the underlying transport.
func (c *Channel) Close() error { return c.conn.Close() }

// Send encrypts and writes one message frame, ratcheting the send key
// every rekeyInterval frames. The payload is borrowed only for the
// duration of the call.
func (c *Channel) Send(payload []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.sendLocked(append(c.sendBuf[:0], 0, 0, 0, 0), payload)
}

// SendEnvelope marshals and sends an envelope (request ID + message)
// in one sealed frame, marshalled into the frame scratch and sealed in
// place, so the steady state allocates nothing and copies the message's
// bytes once.
func (c *Channel) SendEnvelope(id uint64, m Message) error {
	return c.SendEnvelopeTrace(id, TraceContext{}, m)
}

// SendEnvelopeTrace is SendEnvelope carrying a distributed-trace
// context, encoded only when it is Valid. Unsampled (zero) contexts
// stay on the allocation-free path. ErrFrameTooLarge means nothing was
// written and the channel is intact: the failure is the message's, not
// the session's.
func (c *Channel) SendEnvelopeTrace(id uint64, tc TraceContext, m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	buf := AppendEnvelope(append(c.sendBuf[:0], 0, 0, 0, 0), id, tc, m)
	return c.sendLocked(buf[:frameHeaderLen], buf[frameHeaderLen:])
}

// ParseEnvelope decodes an envelope payload received on this channel.
// The returned message aliases the payload exactly like Unmarshal.
func (c *Channel) ParseEnvelope(payload []byte) (uint64, TraceContext, Message, error) {
	return UnmarshalEnvelope(payload)
}

// sendLocked seals payload behind head, the frame's length header at
// the front of the channel's frame scratch, and writes the frame with a
// single conn.Write. A payload marshalled right after head (an
// envelope) is sealed in place; any other is sealed from where it lies.
// Either way the AEAD's output is the frame, so no byte is copied twice,
// and the transport sees one contiguous buffer. A payload too large for
// a frame fails before the sequence number moves. Caller holds sendMu.
func (c *Channel) sendLocked(head, payload []byte) error {
	if len(payload)+gcmOverhead > MaxFrameSize {
		c.sendBuf = trimScratch(head)
		return ErrFrameTooLarge
	}
	if c.sendSeq > 0 && c.sendSeq%c.rekeyEvery == 0 {
		if err := ratchet(&c.sendKey, &c.send); err != nil {
			return err
		}
	}
	binary.BigEndian.PutUint64(c.sendNonce[4:], c.sendSeq)
	c.sendSeq++
	buf := c.send.Seal(head, c.sendNonce[:], payload, nil)
	binary.BigEndian.PutUint32(buf[:frameHeaderLen], uint32(len(buf)-frameHeaderLen))
	c.sendBuf = trimScratch(buf)
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	c.bytesOut.Add(int64(len(buf)))
	return nil
}

// gcmOverhead is the AES-GCM tag overhead added by sendLocked.
const gcmOverhead = 16

// recvReadBuffer sizes rd: one read brings a 4 KiB result's frame,
// header and all, or about four of them back to back.
const recvReadBuffer = 16 << 10

// Recv reads and decrypts one message frame, mirroring the sender's
// key ratchet. The returned payload aliases the channel's receive
// scratch: it is valid only until the next Recv, unless the caller
// keeps it with Detach. The frame is decrypted in place, so the steady
// state reads, authenticates and decrypts with zero heap allocations.
func (c *Channel) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.rd == nil {
		c.rd = bufio.NewReaderSize(c.conn, recvReadBuffer)
	}
	frame, err := ReadFrameInto(c.rd, c.recvBuf[:0])
	if err != nil {
		return nil, err
	}
	c.recvBuf = trimScratch(frame)
	if c.recvSeq > 0 && c.recvSeq%c.rekeyEvery == 0 {
		if err := ratchet(&c.recvKey, &c.recv); err != nil {
			return nil, err
		}
	}
	binary.BigEndian.PutUint64(c.recvNonce[4:], c.recvSeq)
	c.recvSeq++
	payload, err := c.recv.Open(frame[:0], c.recvNonce[:], frame, nil)
	if err != nil {
		// The sequence number has advanced and cannot resynchronize
		// (the error is terminal), but telemetry stays honest: these
		// bytes were never authenticated traffic.
		c.authFails.Add(1)
		c.bytesAuthFail.Add(int64(len(frame)) + frameHeaderLen)
		return nil, ErrChannelAuth
	}
	c.bytesIn.Add(int64(len(frame)) + frameHeaderLen)
	return payload, nil
}

// Detach hands the payload of the last Recv, and every message decoded
// from it, to the caller for good: the channel forgets its receive
// scratch, so the next Recv reads into a fresh buffer of that frame's
// size. A reader that keeps a reply's sealed bytes past its next Recv
// detaches instead of copying them. Only the channel's one reader may
// call it, between its Recv calls.
func (c *Channel) Detach() {
	c.recvMu.Lock()
	c.recvBuf = c.recvHdr[:0]
	c.recvMu.Unlock()
}

// trimScratch retains a grown scratch buffer for reuse, dropping it
// once a single oversized frame would otherwise pin more than
// maxScratchRetain per direction forever.
func trimScratch(buf []byte) []byte {
	if cap(buf) > maxScratchRetain {
		return nil
	}
	return buf[:0]
}

// ratchet advances a direction key: key' = KDF(key), zeroizing the old
// key so previously recorded traffic cannot be decrypted with any
// state still resident in memory.
func ratchet(key *[]byte, aead *cipher.AEAD) error {
	next := hkdfKey(*key, "speed/ratchet")
	a, err := newAEAD(next)
	if err != nil {
		mle.Zeroize(next)
		return err
	}
	mle.Zeroize(*key)
	*key = next
	*aead = a
	return nil
}

// Trust is a remote-attestation trust set: the platform attestation
// keys (PKIX DER) whose quotes are accepted. A nil *Trust restricts
// the handshake to local (intra-platform) attestation.
type Trust struct {
	// PlatformKeys are trusted platform attestation public keys.
	PlatformKeys [][]byte
}

// hello is the handshake message: a local attestation report, always,
// plus a remote attestation quote over the same key-exchange data so
// cross-platform peers can verify.
type hello struct {
	report enclave.Report
	quote  enclave.Quote
}

func makeHello(e *enclave.Enclave, target enclave.Measurement, data []byte) (hello, error) {
	h := hello{report: e.Report(target, data)}
	q, err := e.Quote(data)
	if err != nil {
		return hello{}, err
	}
	h.quote = q
	return h, nil
}

func (h hello) marshal() []byte {
	report := h.report.Marshal()
	quote := h.quote.Marshal()
	buf := make([]byte, 0, 8+len(report)+len(quote))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(report)))
	buf = append(buf, report...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(quote)))
	buf = append(buf, quote...)
	return buf
}

func parseHello(b []byte) (hello, error) {
	var h hello
	readBytes := func() ([]byte, error) {
		if len(b) < 4 {
			return nil, ErrMalformed
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint64(n) > uint64(len(b)) {
			return nil, ErrMalformed
		}
		v := b[:n:n]
		b = b[n:]
		return v, nil
	}
	reportB, err := readBytes()
	if err != nil {
		return h, err
	}
	if h.report, err = enclave.UnmarshalReport(reportB); err != nil {
		return h, err
	}
	quoteB, err := readBytes()
	if err != nil {
		return h, err
	}
	if h.quote, err = enclave.UnmarshalQuote(quoteB); err != nil {
		return h, err
	}
	if len(b) != 0 {
		return h, ErrMalformed
	}
	return h, nil
}

// verifyHello authenticates a peer hello: local attestation first
// (same platform), falling back to a remote attestation quote when a
// trust set is configured. It returns the attested measurement and the
// peer's key-exchange data.
func verifyHello(e *enclave.Enclave, h hello, trust *Trust) (enclave.Measurement, [64]byte, error) {
	if err := e.VerifyReport(h.report); err == nil {
		return h.report.Measurement, h.report.Data, nil
	}
	if trust != nil {
		if err := enclave.VerifyQuote(h.quote, trust.PlatformKeys); err == nil {
			return h.quote.Measurement, h.quote.Data, nil
		}
	}
	return enclave.Measurement{}, [64]byte{}, fmt.Errorf("wire: peer attestation: %w", enclave.ErrAttestation)
}

// readHelloFrame reads one handshake frame under the pre-attestation
// size cap: the peer has not proved anything yet, so a length prefix
// beyond maxHelloSize is rejected before a single byte of payload is
// read or buffered.
func readHelloFrame(conn io.Reader) ([]byte, error) {
	return readFrameLimit(conn, maxHelloSize, nil)
}

// ClientHandshake establishes a channel from the enclave e to a peer
// on the same platform whose measurement must equal peerMeasurement.
// The conn must already connect the two endpoints (TCP or loopback).
func ClientHandshake(conn io.ReadWriteCloser, e *enclave.Enclave, peerMeasurement enclave.Measurement) (*Channel, error) {
	return ClientHandshakeTrust(conn, e, peerMeasurement, nil)
}

// ClientHandshakeTrust is ClientHandshake that additionally accepts a
// remote server on a platform in the trust set (remote attestation).
func ClientHandshakeTrust(conn io.ReadWriteCloser, e *enclave.Enclave, peerMeasurement enclave.Measurement, trust *Trust) (*Channel, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("wire: keygen: %w", err)
	}
	clientHello, err := makeHello(e, peerMeasurement, helloData(priv))
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(conn, clientHello.marshal()); err != nil {
		return nil, fmt.Errorf("wire: send client hello: %w", err)
	}

	frame, err := readHelloFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("wire: read server hello: %w", err)
	}
	serverHello, err := parseHello(frame)
	if err != nil {
		return nil, fmt.Errorf("wire: parse server hello: %w", err)
	}
	peerMeas, peerData, err := verifyHello(e, serverHello, trust)
	if err != nil {
		return nil, err
	}
	if peerMeas != peerMeasurement {
		return nil, ErrPeerRejected
	}
	if err := checkVersion(peerData); err != nil {
		return nil, err
	}
	return deriveChannel(conn, priv, peerMeas, peerData, true)
}

// ServerHandshake accepts a channel at the enclave e from a client on
// the same platform. accept decides whether a client measurement is
// allowed; nil accepts any client that passes attestation.
func ServerHandshake(conn io.ReadWriteCloser, e *enclave.Enclave, accept func(enclave.Measurement) bool) (*Channel, error) {
	return ServerHandshakeTrust(conn, e, accept, nil)
}

// ServerHandshakeTrust is ServerHandshake that additionally accepts
// remote clients on platforms in the trust set (remote attestation).
func ServerHandshakeTrust(conn io.ReadWriteCloser, e *enclave.Enclave, accept func(enclave.Measurement) bool, trust *Trust) (*Channel, error) {
	frame, err := readHelloFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("wire: read client hello: %w", err)
	}
	clientHello, err := parseHello(frame)
	if err != nil {
		return nil, fmt.Errorf("wire: parse client hello: %w", err)
	}
	clientMeas, clientData, err := verifyHello(e, clientHello, trust)
	if err != nil {
		return nil, err
	}
	if accept != nil && !accept(clientMeas) {
		return nil, ErrPeerRejected
	}
	if err := checkVersion(clientData); err != nil {
		return nil, err
	}

	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("wire: keygen: %w", err)
	}
	serverHello, err := makeHello(e, clientMeas, helloData(priv))
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(conn, serverHello.marshal()); err != nil {
		return nil, fmt.Errorf("wire: send server hello: %w", err)
	}
	return deriveChannel(conn, priv, clientMeas, clientData, false)
}

// helloVersionByte is where the hello's key-exchange data carries the
// protocol version, directly after the 32-byte X25519 public key.
const helloVersionByte = 32

// helloData builds the hello's key-exchange data: the X25519 public key
// and ProtocolVersion. Both are covered by the attestation report MAC,
// so a network adversary cannot rewrite the version.
func helloData(priv *ecdh.PrivateKey) []byte {
	data := make([]byte, helloVersionByte+1)
	copy(data, priv.PublicKey().Bytes())
	data[helloVersionByte] = ProtocolVersion
	return data
}

// checkVersion refuses an attested peer that speaks any protocol
// version but ours (a zero byte is a peer predating the version byte).
// The refusal is deterministic — re-dialing the same peer meets the
// same byte — so it wraps ErrPeerRejected, which no caller retries.
func checkVersion(peerData [64]byte) error {
	if v := peerData[helloVersionByte]; v != ProtocolVersion {
		return fmt.Errorf("%w: peer speaks protocol version %d, this build speaks only %d", ErrPeerRejected, v, ProtocolVersion)
	}
	return nil
}

func deriveChannel(conn io.ReadWriteCloser, priv *ecdh.PrivateKey, peerMeas enclave.Measurement, peerData [64]byte, isClient bool) (*Channel, error) {
	peerPub, err := ecdh.X25519().NewPublicKey(peerData[:32])
	if err != nil {
		return nil, fmt.Errorf("wire: peer public key: %w", err)
	}
	shared, err := priv.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("wire: ecdh: %w", err)
	}
	defer mle.Zeroize(shared)
	c2sKey := hkdfKey(shared, "speed/c2s")
	s2cKey := hkdfKey(shared, "speed/s2c")
	c2s, err := newAEAD(c2sKey)
	if err != nil {
		mle.Zeroize(c2sKey)
		mle.Zeroize(s2cKey)
		return nil, err
	}
	s2c, err := newAEAD(s2cKey)
	if err != nil {
		mle.Zeroize(c2sKey)
		mle.Zeroize(s2cKey)
		return nil, err
	}
	ch := &Channel{conn: conn, peer: peerMeas, rekeyEvery: rekeyInterval}
	if isClient {
		ch.send, ch.recv = c2s, s2c
		ch.sendKey, ch.recvKey = c2sKey, s2cKey
	} else {
		ch.send, ch.recv = s2c, c2s
		ch.sendKey, ch.recvKey = s2cKey, c2sKey
	}
	return ch, nil
}

// hkdfKey derives one trafficKeySize traffic key with a minimal
// HMAC-SHA-256 extract-and-expand (RFC 5869, zero salt, single-block
// expand). The full 32-byte expand block lives only inside this call
// and is zeroized before returning: truncating the block in the caller
// (key := hkdf(...)[:16]) would leave bytes 16–31 of derived key
// material alive behind a Zeroize of the shorter slice, which is
// exactly the pattern the keyzero check rejects.
func hkdfKey(secret []byte, info string) []byte {
	extract := hmac.New(sha256.New, make([]byte, 32))
	extract.Write(secret)
	prk := extract.Sum(nil)
	defer mle.Zeroize(prk)

	expand := hmac.New(sha256.New, prk)
	expand.Write([]byte(info))
	expand.Write([]byte{1})
	var block [sha256.Size]byte
	expand.Sum(block[:0])
	defer mle.Zeroize(block[:])

	key := make([]byte, trafficKeySize)
	copy(key, block[:])
	return key
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("wire: cipher: %w", err)
	}
	return cipher.NewGCM(block)
}
