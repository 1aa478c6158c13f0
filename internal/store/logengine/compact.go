package logengine

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	storeengine "speed/internal/store/engine"
)

// Compaction reclaims the space shadowed versions and tombstones hold
// and keeps the segment count logarithmic in the store size. It is
// size-tiered: segments fall into size classes a factor tierFactor
// apart, starting at the memtable size (what a flush produces), and
// once mergeMinRun segments of one class sit next to each other in the
// age order they are merged into one segment of (usually) the next
// class. A record is therefore rewritten once per class it climbs
// through — O(log store) times over its life — instead of once per
// compaction. Segment count no longer taxes lookups (the per-segment
// key filters answer for segments that do not hold a tag), which is
// what makes not merging everything safe.
//
// Only age-adjacent segments merge, and the output takes their place
// in the age order, so "newest segment holding a tag wins" keeps
// meaning what it did. Adjacency is also why smaller segments caught
// between the members of a run ride along with it: a run's length
// varies, so an output can land in a higher class than an older
// neighbour, and a policy that insisted on one class exactly would
// leave that neighbour stranded for good. Tombstones survive a merge
// unless the run reaches the oldest segment: below a run that stops
// short there may still be a version the tombstone has to keep
// shadowing.
//
// Crash safety follows the same manifest discipline as a flush: the
// merged segment is written and fsynced first, the directory synced,
// then the manifest atomically swaps the run for its output, and only
// after that swap are the input files deleted. A crash before the swap
// leaves an orphan output (deleted at recovery); a crash after it
// leaves orphan inputs (deleted at recovery). At no point is the
// manifest's segment set incomplete.

const (
	// tierFactor separates adjacent size classes.
	tierFactor = 4
	// mergeMinRun is how many segments of one class make a run worth
	// merging; mergeMaxRun caps a merge's fan-in, and with it its memory
	// (one read buffer and one record per input).
	mergeMinRun = 4
	mergeMaxRun = 16
)

// sizeClass is the tier a segment of size bytes belongs to when a
// flush produces about base bytes. Class boundaries sit at
// base*tierFactor^k/2, halfway (geometrically) between the sizes k
// rounds of merging produce, so a segment that came out a little under
// or over its nominal size still lands in its class.
func sizeClass(size, base int64) int {
	class := 0
	for limit := base * tierFactor / 2; size >= limit; limit *= tierFactor {
		class++
	}
	return class
}

// pickRun returns the run segments[lo:hi] the tiering policy wants
// merged next: a maximal stretch of age-adjacent segments none of
// which is above some class and at least mergeMinRun of which are in
// it, cut to mergeMaxRun from its old end. The highest such class goes
// first (its run contains the lower classes' runs, so they are written
// once, not twice) and within it the oldest run. ok is false when no
// run is eligible — the policy's fixed point.
func pickRun(segments []*segment, base int64) (lo, hi int, ok bool) {
	classes := make([]int, len(segments))
	top := 0
	for i, s := range segments {
		classes[i] = sizeClass(s.size, base)
		top = max(top, classes[i])
	}
	for class := top; class >= 0; class-- {
		for lo = 0; lo < len(classes); lo = hi + 1 {
			inClass := 0
			for hi = lo; hi < len(classes) && classes[hi] <= class; hi++ {
				if classes[hi] == class {
					inClass++
				}
			}
			if inClass >= mergeMinRun {
				return lo, min(hi, lo+mergeMaxRun), true
			}
		}
	}
	return 0, 0, false
}

// compactLocked runs the tiering policy to its fixed point: it merges
// eligible runs until none is left. Each merge shrinks the segment
// list, so this terminates. Caller holds mu.
func (e *Engine) compactLocked() error {
	if e.closed {
		return storeengine.ErrClosed
	}
	for {
		lo, hi, ok := pickRun(e.segments, e.cfg.MemtableBytes)
		if !ok {
			return nil
		}
		if err := e.mergeRun(lo, hi); err != nil {
			return err
		}
	}
}

// mergeRun replaces the age-adjacent segments[lo:hi] with one segment
// holding the newest version of every tag in them. Records stream from
// buffered cursors straight into the segment writer, so memory is one
// record and one read buffer per input plus the write buffer, whatever
// the run's size. Records move as ciphertext: a merge unseals nothing.
// Caller holds mu.
func (e *Engine) mergeRun(lo, hi int) error {
	start := time.Now()
	run := e.segments[lo:hi]
	// Nothing older than segment 0 can hold a version for a tombstone
	// to shadow, so a run that starts there sheds its tombstones.
	dropDead := lo == 0
	var (
		it   = newMergeIter(run)
		live int
	)
	next := func() (segRecord, bool, error) {
		for {
			c, err := it.next()
			if c == nil || err != nil {
				return segRecord{}, false, err
			}
			if c.dead && dropDead {
				continue
			}
			if !c.dead {
				live++
			}
			return segRecord{tag: c.tag, dead: c.dead, blob: c.blob, sealed: c.sealed}, true, nil
		}
	}

	id := e.nextSegID
	name := segmentName(id)
	path := filepath.Join(e.cfg.Dir, name)
	if err := writeSegment(e.fsys, path, next); err != nil {
		return err
	}
	if err := syncDir(e.fsys, e.cfg.Dir); err != nil {
		return err
	}
	seg, err := openSegment(e.fsys, path, id, nil)
	if err != nil {
		e.fsys.Remove(path)
		return err
	}
	merged := slices.Concat(e.segments[:lo], []*segment{seg}, e.segments[hi:])
	if err := writeManifest(e.fsys, e.cfg.Dir, segmentNames(merged)); err != nil {
		if cerr := seg.close(); cerr != nil {
			e.cfg.Logf("logengine: close orphan segment: %v", cerr)
		}
		e.fsys.Remove(path)
		return fmt.Errorf("logengine: commit compaction: %w", err)
	}
	e.segments = merged
	e.nextSegID = id + 1
	e.st.Compactions++
	e.st.CompactionBytesWritten += seg.size
	for _, s := range run {
		e.st.CompactionBytesRead += s.size
		if cerr := s.close(); cerr != nil {
			e.cfg.Logf("logengine: close compacted segment %s: %v", filepath.Base(s.path), cerr)
		}
		if err := e.fsys.Remove(s.path); err != nil {
			// Recovery will treat it as an orphan; just note it.
			e.cfg.Logf("logengine: remove compacted segment %s: %v", filepath.Base(s.path), err)
		}
	}
	e.compactSeconds.Observe(time.Since(start))
	e.cfg.Logf("logengine: merged %d segments into %s (%d live records)", len(run), name, live)
	return nil
}

// segmentNames lists the segments' file names in order, as the
// manifest records them.
func segmentNames(segments []*segment) []string {
	names := make([]string, len(segments))
	for i, s := range segments {
		names[i] = filepath.Base(s.path)
	}
	return names
}
