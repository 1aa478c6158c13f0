package logengine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"speed/internal/mle"
)

// Immutable sorted segments are the engine's durable tier. A segment
// file is written once (by a memtable flush or a merge), fsynced, then
// only ever read:
//
//	file   := magic [8]byte ("SPSEG3\r\n") | count uint32 | body | crc uint32
//	body   := record*                       (sorted ascending by tag)
//	record := tag [32]byte | flag byte | blobSize uint32 | sealedLen uint32 | sealed
//
// flag 1 marks a tombstone (sealedLen 0): the tag was deleted after an
// older segment recorded it. crc is CRC-32C over body, verified when the
// segment is opened, so a file the untrusted disk corrupted is rejected
// before any record is trusted. sealed is the record's WAL frame's,
// bound to its tag (recordAD): the CRC guards against accidents, the
// seal against an adversary altering a record or moving it to another
// tag.
//
// Readers locate a tag through three in-memory structures, cheapest
// first: the min/max fence, a key filter (≈2 bytes per key, no false
// negatives), and a sparse index holding every indexInterval-th
// record's (tag, offset) pair. Only a tag that passes fence and filter
// costs file reads: a binary search of the sparse index, then a scan
// of at most indexInterval record headers. All three live in untrusted
// host memory next to the file they describe and are hints about it,
// never evidence: a hit still ends in unsealRecord.

const (
	segMagic       = "SPSEG3\r\n"
	segHeaderLen   = len(segMagic) + 4
	segRecHeader   = 32 + 1 + 4 + 4
	indexInterval  = 16
	segFlagLive    = 0
	segFlagDead    = 1
	manifestName   = "MANIFEST"
	manifestHeader = "speedlog v3"
	// segMagicV1 and manifestHeaderV1 mark on-disk format version 1,
	// the V2 forms version 2, recognised only to be refused
	// (errOldFormat).
	segMagicV1       = "SPSEG1\r\n"
	segMagicV2       = "SPSEG2\r\n"
	manifestHeaderV1 = "speedlog v1"
	manifestHeaderV2 = "speedlog v2"
	// segWriteBuffer and segReadBuffer size the sequential writer's and
	// the sequential readers' (open-time verification, cursors)
	// buffers. Together with one record per cursor they are all the
	// memory a flush or a merge needs beyond its input.
	segWriteBuffer = 1 << 20
	segReadBuffer  = 64 << 10
)

// errOldFormat refuses a directory in on-disk format version 1, whose
// records carried per-record popularity, or version 2, whose records
// sealed their op and tag inside and so were sealed twice on their way
// from the WAL to a segment. Open meets it before recovery deletes or
// truncates anything. There is no migration: the store is a cache, and
// an empty one costs recomputes, never wrong answers.
var errOldFormat = errors.New("written in on-disk format version 1 or 2, which this build (version 3) does not read; move the directory aside to start an empty store (nothing was modified)")

// keyFilter is a blocked Bloom filter over a segment's tags: each tag
// owns one 512-bit block (a cache line) and sets filterProbes bits in
// it. Tags are SHA-256 outputs, so disjoint windows of the tag serve
// as the hash functions: bytes 0-3 choose the block, bytes 4-11 the
// bits. At filterBitsPerKey bits per key the false-positive rate on
// uniformly distributed tags stays well under 1%; a tag that was added
// always answers "maybe" whatever its distribution.
type keyFilter []uint64

const (
	filterBitsPerKey = 16
	filterProbes     = 6
	filterBlockWords = 8 // 8 x 64 bits = one 512-bit block
)

func newKeyFilter(keys int) keyFilter {
	blocks := (keys*filterBitsPerKey + 64*filterBlockWords - 1) / (64 * filterBlockWords)
	return make(keyFilter, max(blocks, 1)*filterBlockWords)
}

// locate returns the first word of tag's block and its bit-choosing
// window.
func (f keyFilter) locate(tag *mle.Tag) (base int, h uint64) {
	blocks := uint64(len(f) / filterBlockWords)
	base = int(uint64(binary.BigEndian.Uint32(tag[0:4]))*blocks>>32) * filterBlockWords
	return base, binary.BigEndian.Uint64(tag[4:12])
}

func (f keyFilter) add(tag *mle.Tag) {
	base, h := f.locate(tag)
	for i := 0; i < filterProbes; i++ {
		f[base+int(h>>6&7)] |= 1 << (h & 63)
		h >>= 9
	}
}

func (f keyFilter) mayContain(tag *mle.Tag) bool {
	base, h := f.locate(tag)
	for i := 0; i < filterProbes; i++ {
		if f[base+int(h>>6&7)]&(1<<(h&63)) == 0 {
			return false
		}
		h >>= 9
	}
	return true
}

// indexEntry is one sparse-index sample: the tag of the n*16th record
// and its absolute file offset.
type indexEntry struct {
	tag mle.Tag
	off int64
}

// segment is an open, immutable, verified segment file.
type segment struct {
	path   string
	id     uint64
	f      file
	count  int
	size   int64 // file size
	sparse []indexEntry
	filter keyFilter
	minTag mle.Tag
	maxTag mle.Tag
	// hdr is find's read buffer: a stack array passed to f.ReadAt would
	// escape to the heap on every lookup. Lookups hold the engine lock.
	hdr [segRecHeader]byte
}

func segmentName(id uint64) string { return fmt.Sprintf("seg-%08d.seg", id) }

// parseSegmentName extracts the id from a segment filename.
func parseSegmentName(name string) (uint64, bool) {
	var id uint64
	if n, err := fmt.Sscanf(name, "seg-%08d.seg", &id); n == 1 && err == nil {
		return id, true
	}
	return 0, false
}

// segRecord is one record on its way into a segment file.
type segRecord struct {
	tag    mle.Tag
	dead   bool
	blob   int64
	sealed []byte
}

// writeSegment streams the records next yields (ascending by tag; ok
// false ends the stream) into a new segment file id in dir through w,
// fsyncs it and the directory, and returns it open, with the sparse
// index, key filter (sized for keys records) and fence built on the
// way, so nothing reads back what it wrote. It is the one
// segment-writing routine: a flush feeds it from its frozen run, a
// merge from its cursors, and neither holds more than the record in
// flight plus the write buffer. A yielded record's sealed bytes are
// consumed before next is called again. The caller commits the
// manifest; until then the file is an orphan that recovery deletes. A
// failed write removes its partial file.
func writeSegment(fsys fileSystem, dir string, id uint64, keys int, w *bufio.Writer, next func() (rec segRecord, ok bool, err error)) (seg *segment, err error) {
	path := filepath.Join(dir, segmentName(id))
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // the write error wins
			fsys.Remove(path)
		}
	}()
	seg = &segment{path: path, id: id, f: f, size: int64(segHeaderLen), filter: newKeyFilter(keys)}
	w.Reset(f)
	var head [segHeaderLen]byte // count is patched in once it is known
	copy(head[:], segMagic)
	if _, err := w.Write(head[:]); err != nil {
		return nil, err
	}
	var (
		crc uint32
		hdr [segRecHeader]byte
	)
	for {
		r, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		copy(hdr[:32], r.tag[:])
		hdr[32] = segFlagLive
		if r.dead {
			hdr[32] = segFlagDead
		}
		binary.BigEndian.PutUint32(hdr[33:37], uint32(r.blob))
		binary.BigEndian.PutUint32(hdr[37:41], uint32(len(r.sealed)))
		if _, err := w.Write(hdr[:]); err != nil {
			return nil, err
		}
		if _, err := w.Write(r.sealed); err != nil {
			return nil, err
		}
		crc = crc32.Update(crc32.Update(crc, crcTable, hdr[:]), crcTable, r.sealed)
		seg.index(r.tag, seg.size)
		seg.size += int64(segRecHeader + len(r.sealed))
	}
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], crc)
	if _, err := w.Write(u32[:]); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	seg.size += 4
	binary.BigEndian.PutUint32(u32[:], uint32(seg.count))
	if _, err := f.WriteAt(u32[:], int64(len(segMagic))); err != nil {
		return nil, err
	}
	if err = f.Sync(); err == nil {
		err = syncDir(fsys, dir)
	}
	if err != nil {
		return nil, err
	}
	return seg, nil
}

// index enters the record at off, the next in tag order, into the
// sparse index, the key filter and the fence.
func (s *segment) index(tag mle.Tag, off int64) {
	if s.count%indexInterval == 0 {
		s.sparse = append(s.sparse, indexEntry{tag: tag, off: off})
	}
	if s.count == 0 {
		s.minTag = tag
	}
	s.maxTag = tag
	s.filter.add(&tag)
	s.count++
}

// openSegment streams through a segment file once, verifying its
// framing, ordering and checksum and building the sparse index, the
// key filter and the fence from the keys it passes — the file is never
// held in memory. visit, when non-nil, sees every record header in
// order, without its sealed bytes (recovery computes live occupancy from
// them).
func openSegment(fsys fileSystem, path string, id uint64, visit func(segRecord)) (seg *segment, err error) {
	base := filepath.Base(path)
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // the verification error wins
		}
	}()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), segReadBuffer)
	var head [segHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil || size < int64(segHeaderLen+4) || string(head[:len(segMagic)]) != segMagic {
		if m := string(head[:len(segMagic)]); m == segMagicV1 || m == segMagicV2 {
			return nil, fmt.Errorf("logengine: segment %s: %w", base, errOldFormat)
		}
		return nil, fmt.Errorf("logengine: segment %s: bad header", base)
	}
	count := int(binary.BigEndian.Uint32(head[len(segMagic):]))
	left := size - int64(segHeaderLen) - 4 // body bytes not yet consumed
	if int64(count) > left/segRecHeader {
		return nil, fmt.Errorf("logengine: segment %s: truncated (header claims %d records)", base, count)
	}
	seg = &segment{path: path, id: id, f: f, size: size, filter: newKeyFilter(count)}
	var (
		crc  uint32
		hdr  [segRecHeader]byte
		prev mle.Tag
	)
	for i := 0; i < count; i++ {
		off := size - 4 - left
		if left < segRecHeader {
			return nil, fmt.Errorf("logengine: segment %s: truncated record %d", base, i)
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("logengine: read %s: %w", base, err)
		}
		crc = crc32.Update(crc, crcTable, hdr[:])
		left -= segRecHeader
		tag := mle.Tag(hdr[:32])
		dead := hdr[32] == segFlagDead
		sealedLen := int64(binary.BigEndian.Uint32(hdr[37:41]))
		if left < sealedLen {
			return nil, fmt.Errorf("logengine: segment %s: truncated record %d payload", base, i)
		}
		for n := sealedLen; n > 0; {
			chunk, err := r.Peek(int(min(n, segReadBuffer)))
			if err != nil {
				return nil, fmt.Errorf("logengine: read %s: %w", base, err)
			}
			crc = crc32.Update(crc, crcTable, chunk)
			n -= int64(len(chunk))
			_, _ = r.Discard(len(chunk)) // cannot fail: just peeked
		}
		left -= sealedLen
		if i > 0 && bytes.Compare(tag[:], prev[:]) <= 0 {
			return nil, fmt.Errorf("logengine: segment %s: records out of order", base)
		}
		prev = tag
		seg.index(tag, off)
		if visit != nil {
			visit(segRecord{tag: tag, dead: dead, blob: int64(binary.BigEndian.Uint32(hdr[33:37]))})
		}
	}
	if left != 0 {
		return nil, fmt.Errorf("logengine: segment %s: trailing garbage", base)
	}
	var want [4]byte
	if _, err := io.ReadFull(r, want[:]); err != nil {
		return nil, fmt.Errorf("logengine: read %s: %w", base, err)
	}
	if crc != binary.BigEndian.Uint32(want[:]) {
		return nil, fmt.Errorf("logengine: segment %s: checksum mismatch (untrusted storage corrupted it)", base)
	}
	return seg, nil
}

// mayContain is the read-free half of a lookup: false means the
// segment certainly does not hold tag (fence or filter excluded it),
// true means find has to look.
func (s *segment) mayContain(tag mle.Tag) bool {
	if s.count == 0 || bytes.Compare(tag[:], s.minTag[:]) < 0 || bytes.Compare(tag[:], s.maxTag[:]) > 0 {
		return false
	}
	return s.filter.mayContain(&tag)
}

// find locates tag in the segment file, returning (sealed payload,
// found, dead). It reads at most indexInterval record headers via the
// sparse index, plus the payload when wantSealed is set. Callers ask
// mayContain first; find itself always reads.
func (s *segment) find(tag mle.Tag, wantSealed bool) (sealed []byte, found, dead bool, err error) {
	// Greatest sparse entry with tag <= target.
	i := sort.Search(len(s.sparse), func(i int) bool {
		return bytes.Compare(s.sparse[i].tag[:], tag[:]) > 0
	}) - 1
	if i < 0 {
		return nil, false, false, nil
	}
	off := s.sparse[i].off
	for step := 0; step < indexInterval && off < s.size-4; step++ {
		at, dead, next, err := s.header(off)
		if err != nil {
			return nil, false, false, err
		}
		switch cmp := bytes.Compare(at[:], tag[:]); {
		case cmp > 0:
			return nil, false, false, nil // sorted: passed the slot
		case cmp < 0:
			off = next
			continue
		}
		if dead || !wantSealed {
			return nil, true, dead, nil
		}
		sealed = make([]byte, next-off-segRecHeader)
		if _, err := s.f.ReadAt(sealed, off+segRecHeader); err != nil {
			return nil, false, false, fmt.Errorf("logengine: read %s: %w", filepath.Base(s.path), err)
		}
		return sealed, true, false, nil
	}
	return nil, false, false, nil
}

// header reads the header of the record at off: its tag, whether it is
// a tombstone, and the offset of the record after it.
func (s *segment) header(off int64) (tag mle.Tag, dead bool, next int64, err error) {
	hdr := s.hdr[:]
	if _, err := s.f.ReadAt(hdr, off); err != nil {
		return tag, false, 0, fmt.Errorf("logengine: read %s: %w", filepath.Base(s.path), err)
	}
	copy(tag[:], hdr[:32])
	return tag, hdr[32] == segFlagDead, off + segRecHeader + int64(binary.BigEndian.Uint32(hdr[37:41])), nil
}

// cursor streams a segment's records in tag order for merges and the
// open-time seal check through one buffered sequential reader. sealed is reused:
// it holds the current record only until the next call to next.
type cursor struct {
	seg  *segment
	r    *bufio.Reader
	left int                // records not yet read
	hdr  [segRecHeader]byte // read scratch

	tag    mle.Tag
	dead   bool
	blob   int64
	sealed []byte
	valid  bool
	err    error // why the cursor stopped early; nil at a clean end
}

func (s *segment) newCursor() *cursor {
	body := io.NewSectionReader(s.f, int64(segHeaderLen), s.size-int64(segHeaderLen)-4)
	c := &cursor{seg: s, r: bufio.NewReaderSize(body, segReadBuffer), left: s.count}
	c.next()
	return c
}

// next advances to the following record; valid turns false at the end
// or on a read error (err says which).
func (c *cursor) next() {
	c.valid = false
	if c.left == 0 || c.err != nil {
		return
	}
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.r, hdr); err != nil {
		c.fail(err)
		return
	}
	copy(c.tag[:], hdr[:32])
	c.dead = hdr[32] == segFlagDead
	c.blob = int64(binary.BigEndian.Uint32(hdr[33:37]))
	sealedLen := int(binary.BigEndian.Uint32(hdr[37:41]))
	if cap(c.sealed) < sealedLen {
		c.sealed = make([]byte, sealedLen)
	}
	c.sealed = c.sealed[:sealedLen]
	if _, err := io.ReadFull(c.r, c.sealed); err != nil {
		c.fail(err)
		return
	}
	c.left--
	c.valid = true
}

func (c *cursor) fail(err error) {
	c.err = fmt.Errorf("logengine: read %s: %w", filepath.Base(c.seg.path), err)
}

// mergeIter walks the union of several segments in ascending tag
// order, one distinct tag per step. cursors are ordered oldest first
// and the newest segment holding a tag wins it; older versions are
// skipped.
type mergeIter struct {
	cursors []*cursor
	win     *cursor
}

func newMergeIter(segs []*segment) *mergeIter {
	m := &mergeIter{cursors: make([]*cursor, len(segs))}
	for i, s := range segs {
		m.cursors[i] = s.newCursor()
	}
	return m
}

// next steps past the previous tag and returns the cursor holding the
// winning version of the next one, nil at the end. A cursor that
// failed mid-file ends the walk with its error: a merge must never
// mistake a short read for the end of a segment.
func (m *mergeIter) next() (*cursor, error) {
	if m.win != nil {
		tag := m.win.tag
		for _, c := range m.cursors {
			if c.valid && c.tag == tag {
				c.next()
			}
		}
		m.win = nil
	}
	for _, c := range m.cursors {
		if c.err != nil {
			return nil, c.err
		}
		// <=: on a tie the later (newer) cursor takes the tag.
		if c.valid && (m.win == nil || bytes.Compare(c.tag[:], m.win.tag[:]) <= 0) {
			m.win = c
		}
	}
	return m.win, nil
}

func (s *segment) close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// --- MANIFEST ---
//
// The manifest is the atomic commit point for every segment-set
// change (flush, compaction). It lists live segment files oldest
// first; a segment file not listed does not exist as far as the
// engine is concerned, so recovery deletes it. The manifest is
// replaced by write-temp + rename + directory fsync — a crash leaves
// either the old or the new list, never a mix.

// writeManifest atomically replaces the manifest with names (oldest
// first) and fsyncs the directory.
func writeManifest(fsys fileSystem, dir string, names []string) error {
	var b strings.Builder
	b.WriteString(manifestHeader)
	b.WriteByte('\n')
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(b.String()))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, manifestName))
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return syncDir(fsys, dir)
}

// readManifest returns the listed segment names, oldest first. A
// missing manifest is an empty store.
func readManifest(fsys fileSystem, dir string) ([]string, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, manifestName), os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if lines[0] == manifestHeaderV1 || lines[0] == manifestHeaderV2 {
		return nil, fmt.Errorf("logengine: manifest: %w", errOldFormat)
	}
	if lines[0] != manifestHeader {
		return nil, fmt.Errorf("logengine: bad manifest header")
	}
	var names []string
	for _, l := range lines[1:] {
		if l == "" {
			continue
		}
		if _, ok := parseSegmentName(l); !ok {
			return nil, fmt.Errorf("logengine: bad manifest entry %q", l)
		}
		names = append(names, l)
	}
	return names, nil
}
