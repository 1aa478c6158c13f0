package logengine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// The write-ahead log makes every acknowledged insert or delete
// recoverable before the memtable reaches a sorted segment. Frames are
// self-delimiting and individually checksummed:
//
//	frame := length uint32 | crc uint32 | payload [length]byte
//
// where crc is CRC-32C (Castagnoli) over the payload and payload is a
// sealed (enclave-AEAD) operation:
//
//	op    byte    (4 = put, 5 = delete)
//	tag   [32]byte
//	rec   appendRecord(...)   (put only)
//
// The CRC detects torn writes (a crash mid-append); the seal detects
// tampering. Recovery trusts neither: a frame whose length or CRC does
// not check out ends replay and the file is truncated at the last good
// frame — a torn tail is expected after a crash and is never applied.
// A frame whose CRC is valid but whose seal fails authentication is
// hostile (the CRC is attacker-computable, the seal is not) and fails
// recovery loudly.

const (
	walName        = "wal.log"
	walFrameHeader = 8 // length + crc
	// Op codes are not reused across on-disk formats: 1-3 were format
	// version 1's put, delete and popularity touch, so a version-1 log
	// is recognised and refused at its first frame.
	walOpPut    = 4
	walOpDelete = 5
	// maxWALPayload bounds a frame's declared length so a corrupt
	// header cannot drive a huge allocation during replay.
	maxWALPayload = 1 << 30
	// maxScratchRetain caps the frame scratch kept between appends.
	maxScratchRetain = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walOp is one decoded WAL operation.
type walOp struct {
	op  byte
	tag mle.Tag
	rec storeengine.Record
}

// wal is the append-only log file. Appends are serialized by the
// engine's mutex.
type wal struct {
	f       file
	size    int64
	dirty   bool   // appended since last sync
	records int64  // appends (Stats.WALRecords)
	syncs   int64  // fsyncs of appended data (Stats.WALSyncs)
	scratch []byte // frame assembly buffer, reused across appends
	failed  error  // set when a failed append could not be rolled back
}

func openWAL(fsys fileSystem, path string) (*wal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		_ = f.Close() // seek error wins
		return nil, err
	}
	return &wal{f: f, size: size}, nil
}

// decodeWALPayload parses an unsealed operation.
func decodeWALPayload(raw []byte) (walOp, error) {
	var o walOp
	if len(raw) < 1+32 {
		return o, errBadRecord
	}
	o.op = raw[0]
	copy(o.tag[:], raw[1:33])
	switch o.op {
	case walOpDelete:
		if len(raw) != 1+32 {
			return o, errBadRecord
		}
		return o, nil
	case walOpPut:
		rec, err := decodeRecord(raw[33:])
		if err != nil {
			return o, err
		}
		o.rec = rec
		return o, nil
	case 1, 2, 3:
		return o, errFormatV1
	default:
		return o, errBadRecord
	}
}

// append seals the operation into the reused frame scratch after the
// header and writes the frame with one Write, unsynced: the caller
// applies the fsync policy. A failed write is rolled back to the last
// whole frame, lest a later append land behind a torn one that replay
// stops at; if that fails too, every later append is refused.
func (w *wal) append(enc *enclave.Enclave, op byte, tag mle.Tag, rec storeengine.Record) error {
	if w.failed != nil {
		return w.failed
	}
	head, body := [1 + len(tag)]byte{op}, &rec
	copy(head[1:], tag[:])
	if op == walOpDelete {
		body = nil
	}
	frame, err := sealRecord(enc, slices.Grow(w.scratch[:0], walFrameHeader)[:walFrameHeader], head[:], body)
	if err != nil {
		return fmt.Errorf("logengine: seal wal record: %w", err)
	}
	sealed := frame[walFrameHeader:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(sealed)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(sealed, crcTable))
	if w.scratch = frame; cap(frame) > maxScratchRetain {
		w.scratch = nil
	}
	if _, err := w.f.Write(frame); err != nil {
		if cerr := w.cut(w.size); cerr != nil {
			w.failed = fmt.Errorf("logengine: wal unusable: a failed append (%v) could not be rolled back: %w", err, cerr)
		}
		return fmt.Errorf("logengine: append wal: %w", err)
	}
	w.size += int64(len(frame))
	w.dirty = true
	w.records++
	return nil
}

func (w *wal) sync() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	w.syncs++
	return nil
}

// reset truncates the log to empty after its contents reached a
// durable segment.
func (w *wal) reset() error {
	if err := w.cut(0); err != nil {
		return err
	}
	w.dirty, w.failed = false, nil // an empty log holds no torn frame
	return nil
}

// cut truncates the log to its first size bytes, syncs it and moves the
// file offset to its new end.
func (w *wal) cut(size int64) error {
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	if _, err := w.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	w.size = size
	return w.f.Sync()
}

func (w *wal) close() error { return w.f.Close() }

// replay scans the log from the start, yielding each intact operation.
// It returns the number of operations applied and whether a torn tail
// was truncated. Corrupt-but-authenticated frames (valid CRC, failed
// seal) abort with an error: that is tampering, not a crash artifact.
func (w *wal) replay(enc *enclave.Enclave, apply func(walOp)) (replayed int64, torn bool, err error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return 0, false, err
	}
	var (
		good   int64 // offset just past the last intact frame
		header [walFrameHeader]byte
	)
	for {
		if _, err := io.ReadFull(w.f, header[:]); err != nil {
			if err == io.EOF {
				break // clean end
			}
			torn = true // partial header
			break
		}
		length := binary.BigEndian.Uint32(header[0:4])
		sum := binary.BigEndian.Uint32(header[4:8])
		if length == 0 || length > maxWALPayload || int64(length) > w.size-good-walFrameHeader {
			torn = true
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(w.f, payload); err != nil {
			torn = true
			break
		}
		if crc32.Checksum(payload, crcTable) != sum {
			torn = true
			break
		}
		raw, err := enc.Unseal(payload)
		if err != nil {
			return replayed, false, fmt.Errorf("logengine: wal record failed authentication (tampering?): %w", err)
		}
		op, err := decodeWALPayload(raw)
		if err != nil {
			return replayed, false, fmt.Errorf("logengine: wal replay: frame %d: %w", replayed, err)
		}
		apply(op)
		replayed++
		good += walFrameHeader + int64(length)
	}
	if torn {
		// Drop the torn tail so the next append starts at a frame
		// boundary. The lost suffix was never acknowledged as durable
		// under fsync-on-commit (the crash hit before the sync
		// returned), so truncation loses nothing that was promised.
		if err := w.cut(good); err != nil {
			return replayed, torn, err
		}
	}
	return replayed, torn, nil
}
