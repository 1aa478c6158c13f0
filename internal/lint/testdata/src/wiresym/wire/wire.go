// Package wire exercises the wiresym analyzer: undispatched kinds,
// missing decoders, crossed dispatch, unbounded sequence decoding and
// envelope drift.
package wire

type Message interface{ Kind() byte }

const (
	KindPut = 1
	KindGet = 2
	// KindOrphan is declared but Unmarshal never dispatches it.
	KindOrphan = 3 // want `message kind KindOrphan has no dispatch case in Unmarshal`
	KindLost   = 4 // want `message kind KindLost has no dispatch case in Unmarshal`
)

const MaxBatchItems = 16

type Put struct{}

func (Put) Kind() byte                    { return KindPut }
func (p Put) appendTo(b []byte) []byte    { return b }
func decodePut(b []byte) (Message, error) { return Put{}, nil }

type Get struct{}

// Unmarshal routes KindGet to decodePut below: crossed dispatch.
func (Get) Kind() byte { return KindGet } // want `Unmarshal dispatches KindGet to decodePut`

func (g Get) appendTo(b []byte) []byte    { return b }
func decodeGet(b []byte) (Message, error) { return Get{}, nil }

type Lost struct{}

func (Lost) Kind() byte { return KindLost }

// Lost can be marshalled but never unmarshalled.
func (l Lost) appendTo(b []byte) []byte { return b } // want `type Lost has an appendTo marshal method but no decodeLost counterpart`

func Unmarshal(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, nil
	}
	switch b[0] {
	case KindPut:
		return decodePut(b)
	case KindGet:
		return decodePut(b)
	case KindHasReq:
		return decodeHasRequest(b)
	case KindHasResp:
		return decodeHasResponse(b)
	case KindSync:
		return decodeSync(b)
	}
	return nil, nil
}

// Count-free sequences: a body is its items back to back and the
// decoder reads until the frame is exhausted.
const (
	KindHasReq  = 5
	KindHasResp = 6
	KindSync    = 7
)

type HasRequest struct{}

func (HasRequest) Kind() byte                 { return KindHasReq }
func (r HasRequest) appendTo(b []byte) []byte { return b }

// decodeHasRequest is clean: the bound lives in the helper it calls.
func decodeHasRequest(b []byte) (Message, error) {
	tags := readTags(b)
	_ = tags
	return HasRequest{}, nil
}

func readTags(b []byte) [][]byte {
	if len(b) > MaxBatchItems {
		return nil
	}
	return make([][]byte, len(b))
}

type HasResponse struct{}

func (HasResponse) Kind() byte                 { return KindHasResp }
func (r HasResponse) appendTo(b []byte) []byte { return b }

// decodeHasResponse appends one item per frame byte with no bound.
func decodeHasResponse(b []byte) (Message, error) { // want `decodeHasResponse decodes a sequence of items without MaxBatchItems validation`
	var out []bool
	for len(b) > 0 {
		out = append(out, b[0] == 1)
		b = b[1:]
	}
	_ = out
	return HasResponse{}, nil
}

type Sync struct{}

func (Sync) Kind() byte                 { return KindSync }
func (r Sync) appendTo(b []byte) []byte { return b }

// decodeSync is clean: it checks the bound before every append.
func decodeSync(b []byte) (Message, error) {
	var out []byte
	for len(b) > 0 {
		if len(out) == MaxBatchItems {
			return nil, nil
		}
		out = append(out, b[0])
		b = b[1:]
	}
	return Sync{}, nil
}

const envelopeHeaderLen = 9

func AppendEnvelope(buf []byte, id uint64, m Message) []byte {
	return append(buf, make([]byte, envelopeHeaderLen)...)
}

// UnmarshalEnvelope duplicates the header size as a literal instead of
// sharing envelopeHeaderLen.
func UnmarshalEnvelope(b []byte) (uint64, Message, error) { // want `AppendEnvelope and UnmarshalEnvelope do not share a layout constant`
	if len(b) < 9 {
		return 0, nil, nil
	}
	return 0, nil, nil
}
