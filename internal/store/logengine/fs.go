package logengine

import (
	"io"
	"os"
)

// fileSystem is every way the engine touches its directory. Open runs
// it on the operating system (osFS); the crash-model tests run it on a
// recorder that keeps what a power cut may leave behind, which is why
// nothing outside osFS calls os directly. A directory is fsynced by
// opening it and syncing the handle, as POSIX has it.
type fileSystem interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// ReadDir lists the names in a directory.
	ReadDir(name string) ([]string, error)
	MkdirAll(name string, perm os.FileMode) error
}

// file is the part of *os.File the engine uses.
type file interface {
	io.ReadWriteSeeker
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File inside a non-nil file
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(name string) ([]string, error) {
	des, err := os.ReadDir(name)
	names := make([]string, len(des))
	for i, de := range des {
		names[i] = de.Name()
	}
	return names, err
}

func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

// syncDir fsyncs a directory so the creates, renames and removes in it
// are durable.
func syncDir(fsys fileSystem, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
