package logengine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"speed/internal/enclave"
)

// fuzzEnclave builds an enclave whose sealing key is reproducible
// across fuzz worker processes (seeded platform, fixed measurement),
// so corpus entries containing genuinely sealed frames authenticate.
func fuzzEnclave(tb testing.TB) *enclave.Enclave {
	tb.Helper()
	e, err := testPlatform().Create(fmt.Sprintf("store-fuzz-%d", enclaveSeq.Add(1)), []byte("store code"))
	if err != nil {
		tb.Fatalf("Create: %v", err)
	}
	return e
}

// sealedWAL writes n real records through the production append path
// and returns the raw WAL bytes.
func sealedWAL(tb testing.TB, n int) []byte {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "seed.wal")
	w, err := openWAL(osFS{}, path)
	if err != nil {
		tb.Fatalf("openWAL: %v", err)
	}
	enc := fuzzEnclave(tb)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("seed-%d", i)
		if _, err := w.append(enc, walOpPut, tagOf(key), recOf(key)); err != nil {
			tb.Fatalf("append: %v", err)
		}
	}
	if _, err := w.append(enc, walOpDelete, tagOf("seed-0"), recOf("")); err != nil {
		tb.Fatalf("append delete: %v", err)
	}
	if err := w.close(); err != nil {
		tb.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatalf("read seed wal: %v", err)
	}
	return data
}

// FuzzRecord fuzzes the CRC32-C WAL record framing: arbitrary bytes
// are treated as an on-disk log and replayed. Whatever the input —
// torn tails, bit flips, oversized declared lengths, CRC-fixed
// garbage — replay must never panic, must either reject loudly
// (tampering) or truncate to a frame boundary, and after a truncating
// replay a second replay of the same file must be clean and
// bit-identical in what it applies.
func FuzzRecord(f *testing.F) {
	valid := sealedWAL(f, 3)
	f.Add(valid)
	f.Add([]byte{})
	// Torn tail: a partial final frame.
	f.Add(valid[:len(valid)-7])
	// Bit flip inside a payload: CRC must catch it.
	flipped := append([]byte(nil), valid...)
	flipped[walFrameHeader+3] ^= 0x40
	f.Add(flipped)
	// Oversized declared length with nothing behind it.
	oversized := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(oversized[0:4], maxWALPayload+1)
	f.Add(oversized)
	// Zero-length frame.
	zero := make([]byte, walFrameHeader)
	f.Add(zero)

	// One enclave for all executions: creating one derives sealing
	// keys, which would dominate per-exec time.
	enc := fuzzEnclave(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoders under the framing must hold up to raw bytes on
		// their own (a CRC-fixed frame feeds the payload decoder
		// anything, and a version skew could feed the record decoder
		// anything).
		var ad [adLen]byte
		if op, err := decodeWALPayload(enc, &ad, data); err == nil {
			if op.op != walOpPut && op.op != walOpDelete {
				t.Fatalf("decodeWALPayload accepted unknown op %d", op.op)
			}
		}
		_, _ = decodeRecord(data)

		// The crash model's in-memory directory: a torn tail's
		// truncate-and-fsync costs nothing, so the fuzzer runs at
		// memory speed.
		const root = "/fuzz"
		fsys := newMemFS(root)
		fsys.put("fuzz.wal", data)
		w, err := openWAL(fsys, filepath.Join(root, "fuzz.wal"))
		if err != nil {
			t.Skip("open failed, nothing to replay")
		}
		defer w.close()

		var firstOps []walOp
		replayed, good, err := w.replay(enc, func(op walOp) { firstOps = append(firstOps, op) })
		if err != nil {
			// Authenticated-then-rejected input is a loud error, not a
			// crash artifact; nothing further to check.
			return
		}
		if replayed != int64(len(firstOps)) {
			t.Fatalf("replayed=%d but apply ran %d times", replayed, len(firstOps))
		}
		if good < w.size { // recovery cuts a torn tail
			if err := w.cut(good); err != nil {
				t.Fatalf("cut: %v", err)
			}
			cut := fsys.file("fuzz.wal")
			if len(cut) > len(data) {
				t.Fatalf("truncating replay grew the file: %d -> %d", len(data), len(cut))
			}
			if !bytes.Equal(cut, data[:len(cut)]) {
				t.Fatalf("truncated wal is not a byte prefix of the original")
			}
		}
		// A replay after crash recovery must be clean and apply the
		// identical operation sequence.
		var secondOps []walOp
		replayed2, good2, err := w.replay(enc, func(op walOp) { secondOps = append(secondOps, op) })
		if err != nil {
			t.Fatalf("second replay errored after clean first replay: %v", err)
		}
		if good2 < w.size {
			t.Fatal("second replay still torn after truncation")
		}
		if replayed2 != replayed {
			t.Fatalf("second replay applied %d ops, first applied %d", replayed2, replayed)
		}
		for i := range firstOps {
			a, b := firstOps[i], secondOps[i]
			if a.op != b.op || a.tag != b.tag || !bytes.Equal(appendRecord(nil, a.rec), appendRecord(nil, b.rec)) {
				t.Fatalf("op %d differs between replays", i)
			}
		}
		// CRC sanity: every surviving frame's checksum must match its
		// payload (replay only advances past verified frames).
		rest := fsys.file("fuzz.wal")
		for off := 0; off+walFrameHeader <= len(rest); {
			length := binary.BigEndian.Uint32(rest[off : off+4])
			sum := binary.BigEndian.Uint32(rest[off+4 : off+8])
			end := off + walFrameHeader + int(length)
			if int64(replayed) == 0 || end > len(rest) {
				break
			}
			if crc32.Checksum(rest[off+walFrameHeader:end], crcTable) != sum {
				t.Fatalf("frame at offset %d survived replay with a bad checksum", off)
			}
			off = end
			replayed--
		}
	})
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
