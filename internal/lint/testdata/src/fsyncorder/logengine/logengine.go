// Package logengine exercises the fsyncorder analyzer: the
// write→fsync→rename→dirsync commit discipline, the segment-then-
// commit ordering, and acknowledged-but-unsynced writes.
package logengine

import "os"

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// commitGood is the full durable sequence: clean.
func commitGood(tmp, final string, data []byte) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(".")
}

// renameUnsynced renames before the file content is fsynced.
func renameUnsynced(tmp, final string, data []byte) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	f.Write(data)
	f.Close()
	if err := os.Rename(tmp, final); err != nil { // want `os.Rename commit is not preceded by a file fsync`
		return err
	}
	return syncDir(".")
}

// renameNoDirSync leaves the directory entry volatile after the
// rename.
func renameNoDirSync(tmp, final string, data []byte) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	f.Write(data)
	f.Sync()
	f.Close()
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return nil // want `success path after os.Rename returns without a directory fsync`
}

// ackUnsynced acknowledges a write that may still be in the page
// cache.
func ackUnsynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	f.Close()
	return nil // want `not fsynced before this success return`
}

// writeSegment has the segment-writer shape: writes and syncs the
// file, but the directory entry is the caller's problem.
func writeSegment(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commitManifest is a full durable commit helper (write, sync, rename,
// dirsync): calls to it count as commit points.
func commitManifest(tmp, final string, data []byte) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(".")
}

// flushNoDirSync commits a manifest that points at a segment whose
// directory entry was never synced.
func flushNoDirSync(dir string, data []byte) error {
	if err := writeSegment(dir+"/seg", data); err != nil {
		return err
	}
	return commitManifest(dir+"/m.tmp", dir+"/m", data) // want `commit call follows a segment write without an intervening directory fsync`
}

// flushGood syncs the directory between segment write and commit:
// clean.
func flushGood(dir string, data []byte) error {
	if err := writeSegment(dir+"/seg", data); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	return commitManifest(dir+"/m.tmp", dir+"/m", data)
}
