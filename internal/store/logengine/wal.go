package logengine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"speed/internal/enclave"
	"speed/internal/mle"
	storeengine "speed/internal/store/engine"
)

// The write-ahead log makes every acknowledged insert or delete
// recoverable before its memtable reaches a segment. A frame is
//
//	frame   := length uint32 | crc uint32 | payload [length]byte
//	payload := op byte (4 = put, 5 = delete) | tag [32]byte | sealed
//
// with crc the CRC-32C of the payload and sealed the record
// (appendRecord's encoding; nothing for a delete) sealed under
// recordAD(op, tag): a put's sealed bytes are its segment record's.
// The CRC detects torn writes, the seal tampering. A frame whose length
// or CRC does not check out ends replay, and the file is truncated at
// the last good frame: a torn tail is expected after a crash and never
// applied. A frame whose CRC is valid but whose seal fails is hostile
// (the CRC is attacker-computable, the seal is not) and fails recovery.
//
// The log in use is walName. A freeze renames it frozenWALName(n) and
// starts a fresh one; the frozen file goes once its segment is
// committed. Recovery replays the frozen logs, oldest first, then
// walName.

const (
	walName = "wal-active.log"
	// walNameV2 is the log of on-disk formats 1 and 2, recognised only
	// to be refused (errOldFormat).
	walNameV2      = "wal.log"
	frozenWALFmt   = "wal-%08d.log"
	walFrameHeader = 8      // length + crc
	walOpHeader    = 1 + 32 // op + tag
	walOpPut       = 4
	walOpDelete    = 5
	// maxWALPayload bounds a frame's declared length so a corrupt
	// header cannot drive a huge allocation during replay.
	maxWALPayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func frozenWALName(n uint64) string { return fmt.Sprintf(frozenWALFmt, n) }

// parseFrozenWALName extracts the sequence number of a frozen log.
func parseFrozenWALName(name string) (uint64, bool) {
	var n uint64
	if k, err := fmt.Sscanf(name, frozenWALFmt, &n); k == 1 && err == nil && name == frozenWALName(n) {
		return n, true
	}
	return 0, false
}

// walOp is one decoded WAL operation; sealed is its frame's sealed
// record.
type walOp struct {
	op     byte
	tag    mle.Tag
	rec    storeengine.Record
	sealed []byte
}

// wal is the append-only log file. Appends are serialized by the
// engine's mutex.
type wal struct {
	f       file
	size    int64
	dirty   bool        // appended since last sync
	records int64       // appends (Stats.WALRecords)
	syncs   int64       // fsyncs of appended data (Stats.WALSyncs)
	ad      [adLen]byte // associated-data scratch
	failed  error       // set when a failed append could not be rolled back
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

// append seals the operation into a new frame after its header and
// writes it with one Write, unsynced: the caller applies the fsync
// policy. It returns the frame's sealed record, which the memtable and
// then its frozen run keep until the segment is written. A failed write is rolled back to the last whole frame, lest a
// later append land behind a torn one that replay stops at; if that
// fails too, every later append is refused.
func (w *wal) append(enc *enclave.Enclave, op byte, tag mle.Tag, rec storeengine.Record) ([]byte, error) {
	if w.failed != nil {
		return nil, w.failed
	}
	body, need := &rec, walFrameHeader+walOpHeader+enclave.SealOverhead+recordLen(rec)
	if op == walOpDelete {
		body, need = nil, walFrameHeader+walOpHeader+enclave.SealOverhead
	}
	frame := append(make([]byte, walFrameHeader+1, need), tag[:]...)
	frame[walFrameHeader] = op
	frame, err := sealRecord(enc, frame, recordAD(&w.ad, enc.Measurement(), op, &tag), body)
	if err != nil {
		return nil, fmt.Errorf("logengine: seal wal record: %w", err)
	}
	payload := frame[walFrameHeader:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.f.Write(frame); err != nil {
		if cerr := w.cut(w.size); cerr != nil {
			w.failed = fmt.Errorf("logengine: wal unusable: a failed append (%v) could not be rolled back: %w", err, cerr)
		}
		return nil, fmt.Errorf("logengine: append wal: %w", err)
	}
	w.size += int64(len(frame))
	w.dirty = true
	w.records++
	return payload[walOpHeader:], nil
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

// replay scans the log from the start, yielding each intact operation;
// an op's sealed record is a fresh buffer the caller may keep. It
// returns the number of operations applied and the length of the
// intact prefix, below the file's size when a torn tail follows, and
// changes nothing. Corrupt-but-authenticated frames (valid CRC, failed
// seal) abort with an error: that is tampering, not a crash artifact.
func (w *wal) replay(enc *enclave.Enclave, apply func(walOp)) (replayed, good int64, err error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	var header [walFrameHeader]byte
	for {
		if _, err := io.ReadFull(w.f, header[:]); err != nil {
			return replayed, good, nil // a clean end, or a partial header
		}
		length := binary.BigEndian.Uint32(header[0:4])
		sum := binary.BigEndian.Uint32(header[4:8])
		if length < walOpHeader || length > maxWALPayload || int64(length) > w.size-good-walFrameHeader {
			return replayed, good, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(w.f, payload); err != nil || crc32.Checksum(payload, crcTable) != sum {
			return replayed, good, nil
		}
		o, err := decodeWALPayload(enc, &w.ad, payload)
		if err != nil {
			return replayed, good, fmt.Errorf("logengine: wal replay: frame %d: %w", replayed, err)
		}
		apply(o)
		replayed++
		good += walFrameHeader + int64(length)
	}
}

// decodeWALPayload authenticates and parses a frame's payload, using ad
// as scratch. A frame that fails is hostile: replay stops with its
// error.
func decodeWALPayload(enc *enclave.Enclave, ad *[adLen]byte, payload []byte) (walOp, error) {
	if len(payload) < walOpHeader {
		return walOp{}, errBadRecord
	}
	o := walOp{op: payload[0], tag: mle.Tag(payload[1:walOpHeader]), sealed: payload[walOpHeader:]}
	if o.op != walOpPut && o.op != walOpDelete {
		return o, fmt.Errorf("unknown op %d (tampering?)", o.op)
	}
	raw, err := enc.Unseal(nil, o.sealed, recordAD(ad, enc.Measurement(), o.op, &o.tag))
	if err != nil {
		return o, fmt.Errorf("record failed authentication (tampering?): %w", err)
	}
	if o.op == walOpDelete {
		o.sealed = nil // a tombstone's segment record carries none
		if len(raw) != 0 {
			return o, errBadRecord
		}
		return o, nil
	}
	o.rec, err = decodeRecord(raw)
	return o, err
}
