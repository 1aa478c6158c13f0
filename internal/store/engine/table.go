package engine

import (
	"bytes"
	"crypto/subtle"
	"sort"

	"speed/internal/enclave"
	"speed/internal/mle"
)

// Table is the in-enclave dictionary tier of Section IV-B: a map from
// tag to record whose entries are charged to the store enclave's EPC
// for their dictionary slot only (see Charge). It keeps its entries in
// LRU order, front = most recently touched, and answers read-path
// lookups either by direct index or, when oblivious, by comparing the
// tag with every entry in constant time. The log engine's memtable and
// hot cache are Tables. A Table is not safe for concurrent use: its
// owner serialises access and enters the enclave around it.
type Table struct {
	enc       *enclave.Enclave
	oblivious bool

	entries map[mle.Tag]*Entry
	lru     Entry // sentinel: lru.next is the most recently touched entry, lru.prev the least
	bytes   int64 // the entries' enclave charge
	size    int64 // the entries' whole-record bytes
}

// Charge is what the enclave pays for an entry holding rec: Section
// IV-B's dictionary slot tag → (r, [k], pointer), that is 96 bytes of
// bookkeeping (tag key, map bucket, links, counters, the pointer) plus
// the challenge and wrapped key. The ciphertext, which RCE
// authenticates end to end, lives outside the enclave and is never
// charged.
func Charge(rec Record) int64 {
	return 96 + int64(len(rec.Challenge)+len(rec.WrappedKey))
}

// Size is rec's whole-record bytes, ciphertext included, with 32 + 128
// bytes for its tag and header: what a table's owner budgets in host
// memory and writes out (a memtable's flush point, a cache's capacity),
// apart from what the enclave is charged.
func Size(rec Record) int64 {
	return 32 + 128 + int64(len(rec.Challenge)+len(rec.WrappedKey)+len(rec.Blob))
}

// Entry is one tag's slot in a Table: its record or, when Dead, a
// tombstone shadowing older versions outside the table.
type Entry struct {
	Tag  mle.Tag
	Rec  Record
	Dead bool
	// Sealed is the record's sealed form in host memory, when the
	// table's owner keeps one (the log engine's memtable points at the
	// record's WAL frame: Section IV-B's pointer), else nil.
	Sealed []byte

	charge     int64
	prev, next *Entry
}

// NewTable returns an empty table charging enc. Its lookups are
// oblivious when oblivious is set.
func NewTable(enc *enclave.Enclave, oblivious bool) *Table {
	t := &Table{enc: enc, oblivious: oblivious, entries: make(map[mle.Tag]*Entry)}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return t
}

// Len reports the number of entries, tombstones included.
func (t *Table) Len() int { return len(t.entries) }

// Size reports the entries' whole-record bytes (see Size), tombstones
// included.
func (t *Table) Size() int64 { return t.size }

// Entry returns tag's entry, or nil, by direct index: for the write
// paths, whose access pattern the oblivious mode does not cover.
func (t *Table) Entry(tag mle.Tag) *Entry { return t.entries[tag] }

// Lookup returns tag's entry, or nil, for a GET or HAS. An oblivious
// table compares tag with every entry in constant time and keeps the
// match, doing the same work wherever (or whether) the tag is.
func (t *Table) Lookup(tag mle.Tag) *Entry {
	if !t.oblivious {
		return t.entries[tag]
	}
	var found *Entry
	for k, e := range t.entries {
		if subtle.ConstantTimeCompare(k[:], tag[:]) == 1 {
			found = e
		}
	}
	return found
}

// Set makes a copy of rec (a tombstone when dead) tag's entry at the
// front of the LRU order, replacing any entry the tag had. Nothing
// writes the copy's bytes afterward, so readers may hold views of them
// past the table's lock, removal and eviction included. A record the
// enclave cannot be charged for is not installed and the tag keeps its
// old entry; a tombstone is installed uncharged instead, because it must
// shadow what it deletes. A tombstone stays out of the LRU order: it is
// never read, so never touched, and never an eviction victim.
func (t *Table) Set(tag mle.Tag, rec Record, dead bool) (*Entry, error) {
	// One allocation holds the copy, which is the table's.
	s := mle.Sealed{Challenge: rec.Challenge, WrappedKey: rec.WrappedKey, Blob: rec.Blob}.Clone()
	rec.Challenge, rec.WrappedKey, rec.Blob, rec.BlobSize = s.Challenge, s.WrappedKey, s.Blob, int64(len(s.Blob))
	e := &Entry{Tag: tag, Rec: rec, Dead: dead}
	e.charge = Charge(e.Rec)
	if err := t.enc.Alloc(e.charge); err != nil {
		if !dead {
			return nil, err
		}
		e.charge = 0
	}
	t.Delete(tag)
	t.entries[tag] = e
	t.bytes += e.charge
	t.size += Size(e.Rec)
	if dead {
		e.prev, e.next = e, e // unlinking it is a no-op
	} else {
		t.link(e)
	}
	return e, nil
}

// Delete removes tag's entry, if any, and returns its charge.
func (t *Table) Delete(tag mle.Tag) {
	e, ok := t.entries[tag]
	if !ok {
		return
	}
	delete(t.entries, tag)
	e.prev.next, e.next.prev = e.next, e.prev
	t.bytes -= e.charge
	t.size -= Size(e.Rec)
	t.enc.Free(e.charge)
}

// Touch moves e to the front of the LRU order.
func (t *Table) Touch(e *Entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	t.link(e)
}

func (t *Table) link(e *Entry) {
	e.prev, e.next = &t.lru, t.lru.next
	t.lru.next.prev = e
	t.lru.next = e
}

// Oldest returns the least recently touched live entry, or nil.
func (t *Table) Oldest() *Entry {
	if t.lru.prev == &t.lru {
		return nil
	}
	return t.lru.prev
}

// Sorted returns every entry in ascending tag order.
func (t *Table) Sorted() []*Entry {
	out := make([]*Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Tag[:], out[j].Tag[:]) < 0 })
	return out
}

// Clear drops every entry and returns their charge.
func (t *Table) Clear() {
	t.enc.Free(t.bytes)
	t.bytes, t.size = 0, 0
	clear(t.entries)
	t.lru.prev, t.lru.next = &t.lru, &t.lru
}
