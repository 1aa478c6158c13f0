package wire

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
)

func TestBatchMessageRoundTrips(t *testing.T) {
	sealed := mle.Sealed{
		Challenge:  []byte("rrrrrrrrrrrrrrrr"),
		WrappedKey: []byte("kkkkkkkkkkkkkkkk"),
		Blob:       []byte("ciphertext blob bytes"),
	}
	msgs := []Message{
		GetRequest{},
		GetRequest{Tags: []mle.Tag{mustTag(0x01), mustTag(0x02), mustTag(0x03)}},
		GetResponse{},
		GetResponse{Results: []GetResult{
			{Found: false},
			{Found: true, Sealed: sealed},
		}},
		PutRequest{},
		PutRequest{Items: []PutItem{
			{Tag: mustTag(0xAA), Sealed: sealed},
			{Tag: mustTag(0xBB), Sealed: sealed, Replace: true},
		}},
		PutResponse{},
		PutResponse{Results: []PutResult{
			{OK: true},
			{OK: false, Err: "quota exceeded"},
		}},
	}
	for _, m := range msgs {
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Errorf("%v: Unmarshal: %v", m.Kind(), err)
			continue
		}
		// An empty message decodes to nil item slices, exactly as built.
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v: round trip = %#v, want %#v", m.Kind(), got, m)
		}
	}
}

// repeatItem marshals m — a message of one item — and repeats its body
// n times: the encoding of the n-item message.
func repeatItem(m Message, n int) []byte {
	b := Marshal(m)
	return append(b[:1:1], bytes.Repeat(b[1:], n)...)
}

// TestBatchUnmarshalRejectsMalformed sends every kind at MaxBatchItems
// and at MaxBatchItems+1 items, so a kind Unmarshal does not dispatch,
// or whose decoder does not bound its items, fails here. It fails too
// when a Kind constant has no name in kindNames or a named kind has no
// sample in oneItem, so a new kind cannot skip those two checks.
func TestBatchUnmarshalRejectsMalformed(t *testing.T) {
	blob := mle.Sealed{Blob: []byte("b")}
	oneItem := []Message{
		GetRequest{Tags: []mle.Tag{mustTag(1)}},
		GetResponse{Results: []GetResult{{Found: true, Sealed: blob}}},
		PutRequest{Items: []PutItem{{Tag: mustTag(2), Sealed: blob}}},
		PutResponse{Results: []PutResult{{OK: true}}},
		HasRequest{Tags: []mle.Tag{mustTag(3)}},
		HasResponse{Present: []bool{true}},
	}
	if n := declaredKinds(t); n != len(kindNames)-1 {
		t.Errorf("message.go declares %d Kind constants but kindNames names %d", n, len(kindNames)-1)
	}
	sampled := make(map[Kind]bool)
	for _, m := range oneItem {
		sampled[m.Kind()] = true
	}
	for k := Kind(1); int(k) < len(kindNames); k++ {
		if kindNames[k] == "" || !sampled[k] {
			t.Errorf("%v has no name or no sample in oneItem", k)
		}
	}
	for _, m := range oneItem {
		if _, err := Unmarshal(repeatItem(m, MaxBatchItems)); err != nil {
			t.Errorf("%v with %d items: Unmarshal = %v, want accepted", m.Kind(), MaxBatchItems, err)
		}
		if _, err := Unmarshal(repeatItem(m, MaxBatchItems+1)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%v with item %d: Unmarshal = %v, want ErrMalformed", m.Kind(), MaxBatchItems+1, err)
		}
	}

	tests := []struct {
		name string
		b    []byte
	}{
		{"get request partial second tag", append(Marshal(oneItem[0]), make([]byte, mle.TagSize-1)...)},
		{"get response truncated second result", append(Marshal(oneItem[1]), 1)},
		{"get response bad bool", append(Marshal(oneItem[1]), 7)},
		{"put request short second item", append(Marshal(oneItem[2]), 1, 2, 3)},
		{"put response truncated second result", append(Marshal(oneItem[3]), 1, 0, 0, 0)},
	}
	for _, tt := range tests {
		if _, err := Unmarshal(tt.b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Unmarshal = %v, want ErrMalformed", tt.name, err)
		}
	}
}

// declaredKinds counts the constants of type Kind that message.go
// declares, implicit repetitions in an iota block included.
func declaredKinds(t *testing.T) int {
	f, err := parser.ParseFile(token.NewFileSet(), "message.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		kind := false
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Type != nil || len(vs.Values) > 0 {
				id, ok := vs.Type.(*ast.Ident)
				kind = ok && id.Name == "Kind"
			}
			if kind {
				n += len(vs.Names)
			}
		}
	}
	return n
}

// TestBatchTrailingBytesRejected: with no count prefix, bytes after the
// last item can only be the start of another item — and a lone 0xFF
// starts none.
func TestBatchTrailingBytesRejected(t *testing.T) {
	for _, m := range []Message{
		GetRequest{Tags: []mle.Tag{mustTag(1)}},
		GetResponse{Results: []GetResult{{Found: true, Sealed: mle.Sealed{Blob: []byte("b")}}}},
		PutRequest{Items: []PutItem{{Tag: mustTag(2), Sealed: mle.Sealed{Blob: []byte("b")}}}},
		PutResponse{Results: []PutResult{{OK: true}}},
	} {
		b := append(Marshal(m), 0xFF)
		if _, err := Unmarshal(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%v with trailing byte: Unmarshal = %v, want ErrMalformed", m.Kind(), err)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	msgs := []Message{
		GetRequest{Tags: []mle.Tag{mustTag(0x11)}},
		GetRequest{Tags: []mle.Tag{mustTag(0x22), mustTag(0x33)}},
		PutResponse{Results: []PutResult{{OK: true}}},
	}
	for i, m := range msgs {
		id := uint64(i) * 0x0101010101010101
		gotID, tc, gotMsg, err := UnmarshalEnvelope(AppendEnvelope(nil, id, TraceContext{}, m))
		if err != nil {
			t.Fatalf("UnmarshalEnvelope: %v", err)
		}
		if gotID != id {
			t.Errorf("request ID = %d, want %d", gotID, id)
		}
		if tc.Valid() {
			t.Errorf("unsampled envelope decoded a trace context: %+v", tc)
		}
		if !reflect.DeepEqual(gotMsg, m) {
			t.Errorf("message = %#v, want %#v", gotMsg, m)
		}
	}
}

func TestEnvelopeRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 2, 3}},
		{"no flags byte", make([]byte, 8)},
		{"header only", make([]byte, 9)},
		{"bad body", append(make([]byte, 9), 0xEE, 1)},
	}
	for _, tt := range tests {
		if _, _, _, err := UnmarshalEnvelope(tt.b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: UnmarshalEnvelope = %v, want ErrMalformed", tt.name, err)
		}
	}
}

// TestNegotiatedChannelStillCarriesTraffic: a pair that agreed on
// ProtocolVersion exchanges enveloped messages.
func TestNegotiatedChannelStillCarriesTraffic(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))
	client, server := handshakePair(t, p, app, store, nil)
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		id, msg, err := recvEnvelope(server)
		if err != nil {
			done <- err
			return
		}
		if _, ok := msg.(GetRequest); !ok {
			done <- errors.New("server received wrong message type")
			return
		}
		done <- server.SendEnvelope(id, GetResponse{Results: []GetResult{{}}})
	}()
	if err := client.SendEnvelope(1, GetRequest{Tags: []mle.Tag{mustTag(0x77)}}); err != nil {
		t.Fatalf("SendEnvelope: %v", err)
	}
	if _, _, err := recvEnvelope(client); err != nil {
		t.Fatalf("recvEnvelope: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}
