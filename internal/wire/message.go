// Package wire defines SPEED's on-the-wire protocol between the
// DedupRuntime linked into application enclaves and the encrypted
// ResultStore: the GET/PUT request and response messages of Section
// IV-B, a length-prefixed binary framing, and a mutually attested
// secure channel (Section III-B sends tags "via a secure channel").
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"speed/internal/mle"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. GET checks for and fetches stored results by tag; PUT
// uploads freshly computed, encrypted results. Every message carries a
// sequence of items — the paper's single request is a sequence of one.
const (
	KindGetRequest Kind = iota + 1
	KindGetResponse
	KindPutRequest
	KindPutResponse
)

var kindNames = [...]string{
	KindGetRequest:  "GET_REQUEST",
	KindGetResponse: "GET_RESPONSE",
	KindPutRequest:  "PUT_REQUEST",
	KindPutResponse: "PUT_RESPONSE",
}

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ErrMalformed is returned when a payload cannot be decoded.
var ErrMalformed = errors.New("wire: malformed message")

// MaxBatchItems bounds the items of one message, protecting the peer
// from a single frame that expands into unbounded work. Longer
// sequences must be split by the caller.
const MaxBatchItems = 4096

// Message is implemented by all protocol messages.
type Message interface {
	// Kind returns the message's wire discriminator.
	Kind() Kind
	// appendTo serialises the message body (without the kind byte).
	appendTo(buf []byte) []byte
}

// A message body is its items back to back, with no count prefix: every
// item is self-delimiting (fixed-size tags; bools and length-prefixed
// fields), so a decoder reads items until the frame is exhausted and a
// message of one item is exactly the paper's single request. Responses
// answer requests by position; a response may answer only a prefix of
// its request (see DESIGN.md, "The wire protocol"), and the requester
// asks again for the rest.

// GetRequest asks whether the computations with the given tags have
// been done before (Algorithm 1 line 2 / Algorithm 2 line 2).
type GetRequest struct {
	Tags []mle.Tag
}

// GetResult answers one tag of a GetRequest. When Found is true it
// carries the (r, [k], [res]) triple of Algorithm 2 line 3.
type GetResult struct {
	Found  bool
	Sealed mle.Sealed
}

// GetResponse answers a GetRequest; Results[i] answers Tags[i].
type GetResponse struct {
	Results []GetResult
}

// PutItem uploads (t, r, [k], [res]) for storage (Algorithm 1 line 10).
// Replace requests that any existing entry for the tag be overwritten,
// used after a stored entry failed the verification protocol at the
// application.
type PutItem struct {
	Tag     mle.Tag
	Sealed  mle.Sealed
	Replace bool
}

// PutRequest uploads its items in order.
type PutRequest struct {
	Items []PutItem
}

// PutResult acknowledges one PutItem. Err is a human-readable reason
// when OK is false (e.g. quota exceeded).
type PutResult struct {
	OK  bool
	Err string
}

// PutResponse answers a PutRequest; Results[i] answers Items[i].
type PutResponse struct {
	Results []PutResult
}

// Kind implements Message.
func (GetRequest) Kind() Kind { return KindGetRequest }

// Kind implements Message.
func (GetResponse) Kind() Kind { return KindGetResponse }

// Kind implements Message.
func (PutRequest) Kind() Kind { return KindPutRequest }

// Kind implements Message.
func (PutResponse) Kind() Kind { return KindPutResponse }

// Marshal serialises a message, prefixing its kind byte.
func Marshal(m Message) []byte {
	return AppendMarshal(make([]byte, 0, 64), m)
}

// AppendMarshal serialises a message into buf (kind byte, then body)
// and returns the extended slice, following the append convention of
// the standard library. Reusing one scratch buffer across calls makes
// steady-state marshalling allocation-free.
func AppendMarshal(buf []byte, m Message) []byte {
	buf = append(buf, byte(m.Kind()))
	return m.appendTo(buf)
}

// Unmarshal parses a message produced by Marshal.
func Unmarshal(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, ErrMalformed
	}
	kind, body := Kind(b[0]), b[1:]
	switch kind {
	case KindGetRequest:
		return decodeGetRequest(body)
	case KindGetResponse:
		return decodeGetResponse(body)
	case KindPutRequest:
		return decodePutRequest(body)
	case KindPutResponse:
		return decodePutResponse(body)
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrMalformed, kind)
	}
}

// tooMany is the error for the item past MaxBatchItems.
func tooMany(kind Kind) error {
	return fmt.Errorf("%w: %v carries more than %d items", ErrMalformed, kind, MaxBatchItems)
}

func (m GetRequest) appendTo(buf []byte) []byte {
	for i := range m.Tags {
		buf = append(buf, m.Tags[i][:]...)
	}
	return buf
}

// decodeGetRequest decodes a body that is nothing but tags.
func decodeGetRequest(b []byte) (GetRequest, error) {
	if len(b)%mle.TagSize != 0 {
		return GetRequest{}, fmt.Errorf("%w: %v body of %d bytes is not whole tags", ErrMalformed, KindGetRequest, len(b))
	}
	n := len(b) / mle.TagSize
	if n > MaxBatchItems {
		return GetRequest{}, tooMany(KindGetRequest)
	}
	if n == 0 {
		return GetRequest{}, nil
	}
	tags := make([]mle.Tag, n)
	for i := range tags {
		copy(tags[i][:], b[i*mle.TagSize:])
	}
	return GetRequest{Tags: tags}, nil
}

func (m GetResponse) appendTo(buf []byte) []byte {
	for i := range m.Results {
		buf = appendBool(buf, m.Results[i].Found)
		buf = appendSealed(buf, m.Results[i].Sealed)
	}
	return buf
}

func decodeGetResponse(b []byte) (GetResponse, error) {
	var m GetResponse
	for len(b) > 0 {
		if len(m.Results) == MaxBatchItems {
			return GetResponse{}, tooMany(KindGetResponse)
		}
		var r GetResult
		var err error
		if r.Found, b, err = readBool(b); err != nil {
			return GetResponse{}, err
		}
		if r.Sealed, b, err = readSealed(b); err != nil {
			return GetResponse{}, err
		}
		m.Results = append(m.Results, r)
	}
	return m, nil
}

func (m PutRequest) appendTo(buf []byte) []byte {
	for i := range m.Items {
		it := &m.Items[i]
		buf = append(buf, it.Tag[:]...)
		buf = appendBool(buf, it.Replace)
		buf = appendSealed(buf, it.Sealed)
	}
	return buf
}

func decodePutRequest(b []byte) (PutRequest, error) {
	var m PutRequest
	for len(b) > 0 {
		if len(m.Items) == MaxBatchItems {
			return PutRequest{}, tooMany(KindPutRequest)
		}
		if len(b) < mle.TagSize {
			return PutRequest{}, fmt.Errorf("%w: short PUT_REQUEST item", ErrMalformed)
		}
		var it PutItem
		copy(it.Tag[:], b)
		b = b[mle.TagSize:]
		var err error
		if it.Replace, b, err = readBool(b); err != nil {
			return PutRequest{}, err
		}
		if it.Sealed, b, err = readSealed(b); err != nil {
			return PutRequest{}, err
		}
		m.Items = append(m.Items, it)
	}
	return m, nil
}

func (m PutResponse) appendTo(buf []byte) []byte {
	for i := range m.Results {
		buf = appendBool(buf, m.Results[i].OK)
		buf = appendBytes(buf, []byte(m.Results[i].Err))
	}
	return buf
}

func decodePutResponse(b []byte) (PutResponse, error) {
	var m PutResponse
	for len(b) > 0 {
		if len(m.Results) == MaxBatchItems {
			return PutResponse{}, tooMany(KindPutResponse)
		}
		var r PutResult
		var msg []byte
		var err error
		if r.OK, b, err = readBool(b); err != nil {
			return PutResponse{}, err
		}
		if msg, b, err = readBytes(b); err != nil {
			return PutResponse{}, err
		}
		r.Err = string(msg)
		m.Results = append(m.Results, r)
	}
	return m, nil
}

func appendSealed(buf []byte, s mle.Sealed) []byte {
	buf = appendBytes(buf, s.Challenge)
	buf = appendBytes(buf, s.WrappedKey)
	return appendBytes(buf, s.Blob)
}

func readSealed(b []byte) (mle.Sealed, []byte, error) {
	var s mle.Sealed
	var err error
	if s.Challenge, b, err = readBytes(b); err != nil {
		return s, nil, err
	}
	if s.WrappedKey, b, err = readBytes(b); err != nil {
		return s, nil, err
	}
	if s.Blob, b, err = readBytes(b); err != nil {
		return s, nil, err
	}
	return s, b, nil
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func readBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, fmt.Errorf("%w: missing bool", ErrMalformed)
	}
	switch b[0] {
	case 0:
		return false, b[1:], nil
	case 1:
		return true, b[1:], nil
	default:
		return false, nil, fmt.Errorf("%w: bad bool %d", ErrMalformed, b[0])
	}
}

func appendBytes(buf, v []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...)
}

func readBytes(b []byte) (v, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: missing length", ErrMalformed)
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: length %d exceeds payload", ErrMalformed, n)
	}
	if n == 0 {
		return nil, b, nil
	}
	return b[:n:n], b[n:], nil
}
