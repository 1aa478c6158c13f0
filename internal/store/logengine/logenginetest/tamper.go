// Package logenginetest holds test support for code that sits on a
// log-engine data directory: playing the untrusted disk.
package logenginetest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"speed/internal/mle"
)

// Segment layout, from logengine/segment.go: an 8-byte magic and a
// 4-byte count, then records of tag[32] | flag | blobSize u32 |
// sealedLen u32 | sealed, then a CRC-32C over the records.
const (
	segFileHeader = 8 + 4
	segRecHeader  = 32 + 1 + 4 + 4
)

// TamperSegmentRecord flips one byte inside the sealed payload of
// tag's record in dir's only segment file and repairs the file CRC, so
// the segment opens cleanly and only the record's seal can notice.
func TamperSegmentRecord(t testing.TB, dir string, tag mle.Tag) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (err=%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	off := bytes.Index(data, tag[:])
	if off < 0 {
		t.Fatalf("tag %x not in segment", tag[:8])
	}
	data[off+segRecHeader+10] ^= 0xff
	body := data[segFileHeader : len(data)-4]
	binary.BigEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(segs[0], data, 0o600); err != nil {
		t.Fatalf("write tampered segment: %v", err)
	}
}
