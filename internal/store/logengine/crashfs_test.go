package logengine

import (
	"bytes"
	"io"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// memFS is the recorder the crash tests run the engine on: an
// in-memory fileSystem holding one directory. Every operation takes
// effect at once, as it does in the page cache, and is logged, so that
// a crashWalker can rebuild what a power cut after any prefix of the
// log may have left on the disk.
type memFS struct {
	mu    sync.Mutex
	root  string
	files map[string]*inode // by base name
	log   []fsOp
	// hold, set before the engine opens, runs ahead of each create
	// (any open with O_CREATE) and file sync, by base name, and may
	// block the caller there (see gate).
	hold func(kind opKind, name string)
}

// inode is one file's bytes; a rename moves the inode, not the bytes.
type inode struct{ data []byte }

type opKind int

const (
	opCreate opKind = iota
	opWrite
	opTruncate
	opSync
	opRename
	opRemove
	opDirSync
)

// fsOp is one logged operation. A create, rename or remove changes the
// directory; a write, truncate or sync changes one file.
type fsOp struct {
	kind     opKind
	ino      *inode
	name, to string // the entry; a rename moves name to to
	off      int64  // write offset, or truncate size
	data     []byte // the bytes written, or the file's content at a sync
}

func newMemFS(root string) *memFS {
	return &memFS{root: root, files: make(map[string]*inode)}
}

// ops is the number of operations logged so far: a crash point.
func (m *memFS) ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.log)
}

// find returns the index of the first logged operation at or after
// from of the given kind on the entry name.
func (m *memFS) find(t *testing.T, from int, kind opKind, name string) int {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := from; i < len(m.log); i++ {
		if op := m.log[i]; op.kind == kind && (op.name == name || name == "") {
			return i
		}
	}
	t.Fatalf("no operation %d on %q logged after %d", kind, name, from)
	return 0
}

// image is the directory as the first n operations left it with
// nothing lost: what a process crash at that point leaves behind.
func (m *memFS) image(n int) *memFS {
	w := &crashWalker{fs: m}
	w.advance(n)
	return w.state(keepAll)
}

// clone copies the directory as it stands, with an empty log.
func (m *memFS) clone() *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := newMemFS(m.root)
	for name, ino := range m.files {
		out.files[name] = &inode{data: bytes.Clone(ino.data)}
	}
	return out
}

// file returns a copy of the named file's bytes, nil when it is absent.
func (m *memFS) file(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ino := m.files[name]; ino != nil {
		return bytes.Clone(ino.data)
	}
	return nil
}

// put replaces (or creates) the named file with data, unlogged: the
// adversary editing the disk between runs.
func (m *memFS) put(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = &inode{data: bytes.Clone(data)}
}

func (m *memFS) names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedNames(m.files)
}

func sortedNames(dir map[string]*inode) []string {
	names := make([]string, 0, len(dir))
	for name := range dir {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (m *memFS) segmentFiles() []string {
	var segs []string
	for _, name := range m.names() {
		if _, ok := parseSegmentName(name); ok {
			segs = append(segs, name)
		}
	}
	return segs
}

func (m *memFS) base(name string) (string, error) {
	if filepath.Dir(name) != m.root {
		return "", &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return filepath.Base(name), nil
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (file, error) {
	if m.hold != nil && flag&os.O_CREATE != 0 {
		m.hold(opCreate, filepath.Base(name))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == m.root {
		return &memFile{fs: m}, nil // the directory: Sync is a directory fsync
	}
	base, err := m.base(name)
	if err != nil {
		return nil, err
	}
	ino, ok := m.files[base]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case !ok:
		ino = &inode{}
		m.files[base] = ino
		m.log = append(m.log, fsOp{kind: opCreate, ino: ino, name: base})
	case flag&os.O_EXCL != 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	case flag&os.O_TRUNC != 0:
		ino.data = ino.data[:0]
		m.log = append(m.log, fsOp{kind: opTruncate, ino: ino})
	}
	return &memFile{fs: m, ino: ino, name: base}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	from, err := m.base(oldpath)
	if err != nil {
		return err
	}
	to, err := m.base(newpath)
	if err != nil {
		return err
	}
	ino, ok := m.files[from]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: os.ErrNotExist}
	}
	delete(m.files, from)
	m.files[to] = ino
	m.log = append(m.log, fsOp{kind: opRename, ino: ino, name: from, to: to})
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	base, err := m.base(name)
	if err != nil {
		return err
	}
	ino, ok := m.files[base]
	if !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.files, base)
	m.log = append(m.log, fsOp{kind: opRemove, ino: ino, name: base})
	return nil
}

func (m *memFS) ReadDir(name string) ([]string, error) {
	if name != m.root {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: os.ErrNotExist}
	}
	return m.names(), nil
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

// memFile is an open handle on an inode, or on the directory when ino
// is nil.
type memFile struct {
	fs   *memFS
	ino  *inode
	name string
	off  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off >= int64(len(f.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.ino.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.data = writeAt(f.ino.data, p, off)
	f.fs.log = append(f.fs.log, fsOp{kind: opWrite, ino: f.ino, off: off, data: bytes.Clone(p)})
	return len(p), nil
}

func writeAt(data, p []byte, off int64) []byte {
	if end := off + int64(len(p)); end > int64(len(data)) {
		data = append(data, make([]byte, end-int64(len(data)))...)
	}
	copy(data[off:], p)
	return data
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.ino.data))
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.data = truncate(f.ino.data, size)
	f.fs.log = append(f.fs.log, fsOp{kind: opTruncate, ino: f.ino, off: size})
	return nil
}

func truncate(data []byte, size int64) []byte {
	if size <= int64(len(data)) {
		return data[:size]
	}
	return append(data, make([]byte, size-int64(len(data)))...)
}

func (f *memFile) Sync() error {
	if f.fs.hold != nil && f.ino != nil {
		f.fs.hold(opSync, f.name)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.ino == nil {
		f.fs.log = append(f.fs.log, fsOp{kind: opDirSync})
	} else {
		f.fs.log = append(f.fs.log, fsOp{kind: opSync, ino: f.ino, data: bytes.Clone(f.ino.data)})
	}
	return nil
}

func (f *memFile) Close() error { return nil }

// crashWalker replays a memFS log one operation at a time, keeping
// what a power cut at the current point may lose apart from what it
// may not:
//
//   - a file keeps its bytes as of its last fsync, then a prefix of its
//     later writes and truncates, which may end partway into a write;
//   - the directory keeps its entries as of the last directory fsync;
//     each later create, rename or remove is independently kept or
//     dropped, the kept ones applied in order, a rename atomically.
type crashWalker struct {
	fs      *memFS
	n       int               // operations replayed
	synced  map[*inode][]byte // each file's content at its last fsync
	pending map[*inode][]fsOp // its writes and truncates since
	dir     map[string]*inode // the entries at the last directory fsync
	dirOps  []fsOp            // the creates, renames and removes since
}

// advance replays the log up to (not including) operation n.
func (w *crashWalker) advance(n int) {
	if w.synced == nil {
		w.synced = make(map[*inode][]byte)
		w.pending = make(map[*inode][]fsOp)
		w.dir = make(map[string]*inode)
	}
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	for ; w.n < n; w.n++ {
		switch op := w.fs.log[w.n]; op.kind {
		case opWrite, opTruncate:
			w.pending[op.ino] = append(w.pending[op.ino], op)
		case opSync:
			w.synced[op.ino] = op.data
			delete(w.pending, op.ino)
		case opCreate, opRename, opRemove:
			w.dirOps = append(w.dirOps, op)
		case opDirSync:
			for _, d := range w.dirOps {
				applyDirOp(w.dir, d)
			}
			w.dirOps = nil
		}
	}
}

func applyDirOp(dir map[string]*inode, op fsOp) {
	switch op.kind {
	case opCreate:
		dir[op.name] = op.ino
	case opRename:
		if dir[op.name] == op.ino {
			delete(dir, op.name)
		}
		dir[op.to] = op.ino
	case opRemove:
		if dir[op.name] == op.ino {
			delete(dir, op.name)
		}
	}
}

// keepAll, keepNone and keepSeeded choose how many of n pending steps
// a power cut keeps: all of them (a process crash), none (only what
// was fsynced), or a seeded draw.
func keepAll(n int) int { return n }
func keepNone(int) int  { return 0 }
func keepSeeded(rng *rand.Rand) func(int) int {
	return func(n int) int { return rng.Intn(n + 1) }
}

// state builds one legal post-crash disk at the current point, keep
// choosing what survives of each file's pending writes, of the write a
// cut goes through, and (one at a time) of the pending directory
// operations.
func (w *crashWalker) state(keep func(n int) int) *memFS {
	dir := maps.Clone(w.dir)
	for _, op := range w.dirOps {
		if keep(1) == 1 {
			applyDirOp(dir, op)
		}
	}
	out := newMemFS(w.fs.root)
	for _, name := range sortedNames(dir) { // rng draws in a fixed order
		ino := dir[name]
		data := bytes.Clone(w.synced[ino])
		ops := w.pending[ino]
		k := keep(len(ops))
		for _, op := range ops[:k] {
			data = applyFileOp(data, op)
		}
		if k < len(ops) && ops[k].kind == opWrite && len(ops[k].data) > 1 {
			torn := ops[k] // the write the power cut went through
			torn.data = torn.data[:keep(len(torn.data)-1)]
			data = applyFileOp(data, torn)
		}
		out.files[name] = &inode{data: data}
	}
	return out
}

func applyFileOp(data []byte, op fsOp) []byte {
	if op.kind == opTruncate {
		return truncate(data, op.off)
	}
	return writeAt(data, op.data, op.off)
}
