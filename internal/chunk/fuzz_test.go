package chunk

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzManifest: DecodeManifest must never panic, must reject any count
// above MaxManifestChunks, and anything it accepts must re-encode to
// the exact input bytes (the codec is canonical).
func FuzzManifest(f *testing.F) {
	m, _ := BuildManifest([][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte{7}, 100)})
	f.Add(m.Encode())
	f.Add([]byte{})
	f.Add([]byte("SPCM"))
	// A header announcing an absurd count with no body.
	big := append([]byte("SPCM\x02"), 0xFF, 0xFF, 0xFF, 0xFF)
	f.Add(append(big, make([]byte, 8)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if len(dec.Refs) > MaxManifestChunks {
			t.Fatalf("accepted %d refs, cap is %d", len(dec.Refs), MaxManifestChunks)
		}
		var sum uint64
		for _, r := range dec.Refs {
			sum += uint64(r.Length)
		}
		if sum != dec.Total {
			t.Fatalf("accepted manifest whose lengths sum to %d but Total is %d", sum, dec.Total)
		}
		re := dec.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs from accepted input:\n in: %x\nout: %x", data, re)
		}
		// The declared count must match what was decoded.
		if got := binary.BigEndian.Uint32(data[5:9]); int(got) != len(dec.Refs) {
			t.Fatalf("decoded %d refs for declared count %d", len(dec.Refs), got)
		}
	})
}

// FuzzChunker: for arbitrary input the chunker's invariants must
// hold — concatenation reproduces the input exactly, no chunk exceeds
// Max and no non-final chunk is below Min.
func FuzzChunker(f *testing.F) {
	f.Add([]byte("hello world"))
	f.Add(bytes.Repeat([]byte{0}, 10000))
	f.Add(bytes.Repeat([]byte("abcdefg"), 2000))

	cfg := Config{Min: 64, Avg: 256, Max: 1024}
	c, err := NewChunker(cfg)
	if err != nil {
		f.Fatalf("NewChunker: %v", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		chunks := c.Split(data)
		var cat []byte
		for i, ch := range chunks {
			if len(ch) > cfg.Max {
				t.Fatalf("chunk %d is %d bytes, above Max %d", i, len(ch), cfg.Max)
			}
			if i < len(chunks)-1 && len(ch) < cfg.Min {
				t.Fatalf("non-final chunk %d is %d bytes, below Min %d", i, len(ch), cfg.Min)
			}
			cat = append(cat, ch...)
		}
		if !bytes.Equal(cat, data) {
			t.Fatal("concatenation differs from input")
		}
	})
}
