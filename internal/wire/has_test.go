package wire

import (
	"errors"
	"testing"

	"speed/internal/mle"
)

func TestHasBatchMessageRoundTrips(t *testing.T) {
	msgs := []Message{
		HasRequest{Tags: []mle.Tag{mustTag(0x01), mustTag(0x02), mustTag(0x03)}},
		HasResponse{Present: []bool{true, false, true}},
	}
	for _, m := range msgs {
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", m.Kind(), err)
		}
		switch want := m.(type) {
		case HasRequest:
			gm := got.(HasRequest)
			if len(gm.Tags) != len(want.Tags) {
				t.Fatalf("tag count = %d, want %d", len(gm.Tags), len(want.Tags))
			}
			for i := range gm.Tags {
				if gm.Tags[i] != want.Tags[i] {
					t.Fatalf("tag %d differs", i)
				}
			}
		case HasResponse:
			gm := got.(HasResponse)
			if len(gm.Present) != len(want.Present) {
				t.Fatalf("present count = %d, want %d", len(gm.Present), len(want.Present))
			}
			for i := range gm.Present {
				if gm.Present[i] != want.Present[i] {
					t.Fatalf("present %d differs", i)
				}
			}
		}
	}

	// Empty messages round-trip to empty.
	for _, m := range []Message{HasRequest{}, HasResponse{}} {
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", m.Kind(), err)
		}
		switch gm := got.(type) {
		case HasRequest:
			if len(gm.Tags) != 0 {
				t.Fatalf("empty request decoded %d tags", len(gm.Tags))
			}
		case HasResponse:
			if len(gm.Present) != 0 {
				t.Fatalf("empty response decoded %d flags", len(gm.Present))
			}
		}
	}
}

func TestHasBatchUnmarshalRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
	}{
		{"request partial tag", []byte{byte(KindHasRequest), 0, 0}},
		{"request partial second tag", append(
			Marshal(HasRequest{Tags: []mle.Tag{mustTag(1)}}), 0xFF)},
		{"response bad bool", []byte{byte(KindHasResponse), 7}},
		{"response trailing garbage", []byte{byte(KindHasResponse), 1, 0xFF}},
	}
	for _, tt := range tests {
		if _, err := Unmarshal(tt.b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Unmarshal = %v, want ErrMalformed", tt.name, err)
		}
	}
}
