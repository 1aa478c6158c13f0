package dedup

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"speed/internal/chunk"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/wire"
)

// Chunked deduplication (Config.ChunkThreshold). Large results are
// split by a content-defined FastCDC chunker, each chunk is
// independently RCE-encrypted under its content identity (see
// internal/chunk), and the call's primary tag stores a small sealed
// manifest instead of the whole result. Overlapping results — a
// re-render of an edited document, a near-duplicate dataset — then
// share every unchanged chunk: the store keeps one sealed copy, and a
// producer uploads (or a consumer fetches) only the chunks the other
// side is missing.
//
// The primary tag stays exactly the paper's t = H(func, input); what
// changes is the value stored under it. A whole-result entry decrypts
// under the base identity; a manifest decrypts only under the derived
// ManifestFuncID, so a pre-chunking runtime that hits a manifest gets
// a clean ErrAuthFailed and heals the entry by recompute + replace,
// while a chunk-aware runtime tries the whole-result identity first
// (the small-result path is byte-for-byte today's) and falls back to
// manifest reassembly.

// errNoManifest reports that the primary-tag entry did not decrypt as
// a manifest either — it is a genuinely poisoned/foreign entry, and
// the caller falls through to the ordinary recompute path silently.
var errNoManifest = errors.New("dedup: stored entry carries no manifest")

// errFetchChunks marks a transport failure fetching a manifest's
// chunks. It says nothing about the stored data — the store was
// unreachable, not wrong — so the pipeline books it like a failed
// primary GET instead of a poisoned entry.
var errFetchChunks = errors.New("fetch chunks")

// errTooManyChunks reports that a result split into more chunks than
// one manifest (and one BatchGet) can carry; the caller falls back to
// the whole-result path.
var errTooManyChunks = errors.New("dedup: result splits into too many chunks")

// Bytes in the chunk cache's tiers: enclave plaintext, 4× that sealed in host memory.
const defaultChunkCacheBytes, hostChunkCacheBytes = 16 << 20, 64 << 20

// sketchRows is the depth of the chunk cache's count-min sketch. Row r
// indexes by the tag's r-th 8-byte word: a chunk tag is a SHA-256
// output, so its words are already independent hashes.
const sketchRows = 4

// chunkCache is a byte-bounded tag -> chunk cache, in two tiers of this
// type. An entry means "this chunk was store-resident when we last
// touched it", so a producer can skip re-uploading it and a consumer
// can skip fetching it. The enclave tier holds plaintext charged to
// the application enclave (under EPC pressure caching is skipped
// rather than failing the call). The host tier behind it, in untrusted
// memory and charged to nothing, holds what the enclave tier evicts or
// refuses, sealed under the enclave's key and bound to its tag.
//
// The policy is CLOCK behind TinyLFU admission (Einziger, Friedman and
// Manes, ACM TOS 2017), so the chunks many results share outlive the
// ones a single result brings in: a full cache evicts the first entry
// its hand finds unreferenced only for a candidate the sketch counts
// strictly more often, and otherwise drops the candidate.
type chunkCache struct {
	offerMu sync.Mutex // serializes offer, the one path between the tiers
	mu      sync.Mutex
	max     int64
	bytes   int64
	enc     *enclave.Enclave // charged for the tier; nil for the host tier, charged nothing
	ring    []chunkEntry
	hand    int
	m       map[mle.Tag]int // tag -> ring index; nil once closed
	sketch  []uint8         // sketchRows rows of width counters, each at most 15
	width   int             // a power of two
	counted int64           // increments since the counters last halved
	host    *chunkCache     // the sealed tier behind this one, if any

	rejects, spillHits, spillFailures atomic.Int64 // add's dropped candidates; fill's host entries used, dropped
}

type chunkEntry struct {
	tag  mle.Tag
	data []byte
	ref  bool
}

// newChunkCache makes a tier of max bytes charged to enc and, for an
// enclave tier, a host tier of hostMax bytes behind it.
func newChunkCache(enc *enclave.Enclave, max, hostMax int64) *chunkCache {
	c := &chunkCache{max: max, enc: enc, width: 1}
	for int64(c.width) < 4*max/chunk.DefaultAvg {
		c.width <<= 1
	}
	if enc == nil || enc.Alloc(sketchRows*int64(c.width)) == nil { // else it starts closed
		c.sketch = make([]uint8, sketchRows*c.width)
		c.m = make(map[mle.Tag]int)
	}
	if enc != nil {
		c.host = newChunkCache(nil, hostMax, 0)
	}
	return c
}

// get counts a reference to tag, sets its reference bit if cached and
// returns its data. The slice is shared and must stay read-only.
func (c *chunkCache) get(tag mle.Tag) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		return nil, false
	}
	if est := c.estimate(tag); est < 15 {
		// Conservative update: raise only the counters at the minimum.
		for r := 0; r < sketchRows; r++ {
			if i := c.counter(tag, r); c.sketch[i] == est {
				c.sketch[i]++
			}
		}
		if c.counted++; c.counted >= 10*c.max/chunk.DefaultAvg {
			c.counted = 0
			for i := range c.sketch {
				c.sketch[i] >>= 1
			}
		}
	}
	i, ok := c.m[tag]
	if !ok {
		return nil, false
	}
	c.ring[i].ref = true
	return c.ring[i].data, true
}

// holds reports whether the tier holds tag, counting no reference.
func (c *chunkCache) holds(tag mle.Tag) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[tag]
	return ok
}

// lacking calls f with the index of each of tags, a manifest's chunks,
// that neither tier holds, taking each tier's lock once.
func (c *chunkCache) lacking(tags []mle.Tag, f func(i int)) {
	var held [chunk.MaxManifestChunks / 64]uint64
	for _, tier := range [...]*chunkCache{c, c.host} {
		tier.mu.Lock()
		for i, t := range tags {
			if _, ok := tier.m[t]; ok {
				held[i/64] |= 1 << (i % 64)
			}
		}
		tier.mu.Unlock()
	}
	for i := range tags {
		if held[i/64]>>(i%64)&1 == 0 {
			f(i)
		}
	}
}

// counter is the index of tag's counter in sketch row r.
func (c *chunkCache) counter(tag mle.Tag, r int) int {
	return r*c.width + int(binary.LittleEndian.Uint64(tag[8*r:])&uint64(c.width-1))
}

// estimate is the sketch's count of references to tag.
func (c *chunkCache) estimate(tag mle.Tag) uint8 {
	est := uint8(15)
	for r := 0; r < sketchRows; r++ {
		est = min(est, c.sketch[c.counter(tag, r)])
	}
	return est
}

// add caches data under tag if it fits or wins admission over each
// victim it must evict; a rejected candidate leaves the hand on its
// victim. Borrowed data is copied once admitted; other data becomes
// the cache's (the caller must not modify it again). It appends to out
// what it displaced: each victim, and the candidate, as given, if
// refused. Adding a cached tag, or after close, does nothing.
func (c *chunkCache) add(tag mle.Tag, data []byte, borrowed bool, out []chunkEntry) []chunkEntry {
	n, cand := int64(len(data)), chunkEntry{tag: tag, data: data}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[tag]; ok || c.m == nil {
		return out // same tag, same content (collision-resistant hash)
	}
	if n > c.max {
		return append(out, cand)
	}
	for c.bytes+n > c.max {
		// The ring is not empty: bytes > max-n >= 0.
		switch v := &c.ring[c.hand]; {
		case v.ref:
			v.ref = false
		case c.estimate(tag) <= c.estimate(v.tag):
			c.rejects.Add(1)
			return append(out, cand)
		default:
			out = append(out, *v) // the hand passes the entry taking its slot
			c.remove(c.hand)
		}
		if c.hand++; c.hand >= len(c.ring) {
			c.hand = 0
		}
	}
	if c.enc != nil && c.enc.Alloc(n) != nil {
		return append(out, cand) // enclave memory pressure: caching is optional
	}
	if borrowed {
		cand.data = bytes.Clone(data)
	}
	c.m[tag] = len(c.ring)
	c.ring = append(c.ring, cand)
	c.bytes += n
	return out
}

// remove swap-removes ring entry i: the last, most often the newest.
func (c *chunkCache) remove(i int) {
	v, last := &c.ring[i], len(c.ring)-1
	delete(c.m, v.tag)
	c.bytes -= int64(len(v.data))
	c.enc.Free(int64(len(v.data)))
	if i != last {
		*v = c.ring[last]
		c.m[v.tag] = i
	}
	c.ring[last] = chunkEntry{}
	c.ring = c.ring[:last]
}

// offer adds data under tag to the enclave tier, as add does, unless
// the host tier holds it, and seals into the host tier what that
// displaces. Offers run one at a time, so no tag is ever in both tiers.
func (c *chunkCache) offer(tag mle.Tag, data []byte, borrowed bool) {
	var buf, evicted [4]chunkEntry
	c.offerMu.Lock()
	defer c.offerMu.Unlock()
	if c.host.holds(tag) {
		return
	}
	for _, e := range c.add(tag, data, borrowed, buf[:0]) {
		if c.host.max > 0 {
			if sealed, err := c.enc.Seal(nil, e.data, spillAD(e.tag)); err == nil {
				c.host.add(e.tag, sealed, false, evicted[:0])
			}
		}
	}
}

// spillAD is the associated data a host-tier entry is sealed under: a
// domain string, then its chunk's tag.
func spillAD(tag mle.Tag) []byte { return append([]byte("speed/dedup chunk spill v1\x00"), tag[:]...) }

// fill copies tag's chunk into dst, of its length, from the enclave
// tier or else unsealed from the host tier, where it stays; a host entry
// that does not unseal to len(dst) bytes is dropped and reads as not held.
func (c *chunkCache) fill(tag mle.Tag, dst []byte) bool {
	if data, ok := c.get(tag); ok && len(data) == len(dst) {
		copy(dst, data)
		return true
	}
	sealed, ok := c.host.get(tag)
	if !ok {
		return false
	}
	pt, err := c.enc.Unseal(dst[:0:len(dst)], sealed, spillAD(tag))
	if err != nil || len(pt) != len(dst) {
		c.host.drop(tag)
		c.spillFailures.Add(1)
		return false
	}
	c.spillHits.Add(1)
	return true
}

// drop removes tag's entry, if the tier holds one.
func (c *chunkCache) drop(tag mle.Tag) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.m[tag]; ok {
		c.remove(i)
		c.hand %= max(len(c.ring), 1) // past the end only if it was on the last
	}
}

// close empties both tiers for good, freeing the enclave charge.
func (c *chunkCache) close() {
	if c.host != nil {
		c.host.close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Free(c.bytes + int64(len(c.sketch)))
	c.ring, c.m, c.sketch, c.bytes = nil, nil, nil, 0
}

// manifestRecordBytes bounds the manifest record's sealed bytes: some
// 3,000 manifests of 256 KiB results.
const manifestRecordBytes = 4 << 20

// manifestRecord is host memory, never charged to the enclave: primary
// tag -> the sealed manifest triple the runtime last saw stored under
// it. It holds only ciphertext that crossed the wire, and is a hint:
// predict opens a triple under its call's own identity before using
// it. Oldest written goes first, a generation at a time: once cur would
// pass half the budget it becomes old, and old is dropped.
type manifestRecord struct {
	mu       sync.Mutex
	cur, old map[mle.Tag]mle.Sealed
	bytes    int // in cur
}

// put records a copy of sealed for tag; the zero triple forgets it.
func (r *manifestRecord) put(tag mle.Tag, sealed mle.Sealed) {
	sealed = sealed.Clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil || r.bytes+sealed.Size() > manifestRecordBytes/2 {
		r.old, r.cur, r.bytes = r.cur, make(map[mle.Tag]mle.Sealed), 0
	}
	delete(r.old, tag)
	r.bytes += sealed.Size() - r.cur[tag].Size()
	r.cur[tag] = sealed
}

// get copies the triple recorded for tag into the enclave, where the
// host can no longer change it.
func (r *manifestRecord) get(tag mle.Tag) (mle.Sealed, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.cur[tag]
	if !ok {
		s, ok = r.old[tag]
	}
	return s.Clone(), ok && s.Size() > 0
}

// openedManifest is a sealed manifest opened in the enclave under its
// call's identity: the triple, its decoded manifest and chunk tags.
type openedManifest struct {
	sealed mle.Sealed
	man    chunk.Manifest
	tags   []mle.Tag
}

// openManifest opens sealed as the manifest of (id, input);
// errNoManifest means it is none.
func openManifest(id mle.FuncID, input []byte, sealed mle.Sealed) (*openedManifest, error) {
	enc, err := rce.Decrypt(chunk.ManifestFuncID(id), input, sealed)
	if err != nil {
		if errors.Is(err, mle.ErrAuthFailed) {
			return nil, errNoManifest
		}
		return nil, fmt.Errorf("decrypt manifest: %w", err)
	}
	man, err := chunk.DecodeManifest(enc)
	if err != nil {
		return nil, fmt.Errorf("decode manifest: %w", err)
	}
	cid := chunk.ContentFuncID(id)
	m := &openedManifest{sealed: sealed, man: man, tags: make([]mle.Tag, len(man.Refs))}
	for i := range man.Refs {
		m.tags[i] = chunk.Tag(cid, man.Refs[i].Hash)
	}
	return m, nil
}

// is reports whether sealed is byte for byte the triple m was opened
// from; a nil m is no triple.
func (m *openedManifest) is(sealed mle.Sealed) bool {
	return m != nil && bytes.Equal(m.sealed.Challenge, sealed.Challenge) &&
		bytes.Equal(m.sealed.WrappedKey, sealed.WrappedKey) && bytes.Equal(m.sealed.Blob, sealed.Blob)
}

// predict appends to the lookup's tags, each once, the chunks that the
// recorded manifests of the call's leaders name and the chunk cache
// lacks, so they ride the one GET. A record that does not open under
// its leader's own identity, a swapped or tampered one, is ignored.
func (c *call) predict(tags []mle.Tag) []mle.Tag {
	n := len(tags)
	for i := range c.items {
		it := &c.items[i]
		if !it.leads() {
			continue
		}
		sealed, ok := c.rt.record.get(it.tag)
		if !ok {
			continue
		}
		if m, _ := openManifest(c.id, it.input, sealed); m != nil {
			if c.preds == nil {
				c.preds = make([]*openedManifest, len(c.items))
			}
			c.preds[i] = m
			c.rt.chunkCache.lacking(m.tags, func(k int) { tags = append(tags, m.tags[k]) })
		}
	}
	return tags[:n+len(c.unfetched(tags[n:]))]
}

// unfetched keeps, in place, each of tags the call has neither fetched
// nor kept before, and indexes it as the next of c.fetched.
func (c *call) unfetched(tags []mle.Tag) []mle.Tag {
	if len(tags) == 0 {
		return tags
	}
	if c.fetchedAt == nil {
		c.fetchedAt = make(map[mle.Tag]int, len(tags))
	}
	kept := tags[:0]
	for _, t := range tags {
		if _, ok := c.fetchedAt[t]; !ok {
			c.fetchedAt[t] = len(c.fetched) + len(kept)
			kept = append(kept, t)
		}
	}
	return kept
}

// clientPutAll uploads items, if any, and reports the first one the
// store rejected as ErrPutRejected.
func (rt *Runtime) clientPutAll(tc wire.TraceContext, what string, items []wire.PutItem) error {
	if len(items) == 0 {
		return nil
	}
	prs, err := rt.clientPut(tc, items)
	if err != nil {
		return err
	}
	for _, pr := range prs {
		if !pr.OK {
			return fmt.Errorf("%w: %s put: %s", ErrPutRejected, what, pr.Err)
		}
	}
	return nil
}

// sealChunked seals a large result chunk-wise: split, probe for what
// the store already holds, seal only the missing chunks, and seal the
// manifest for the call's primary tag. It runs inside the application
// enclave, where the HAS probe is an OCALL, and returns the send that
// uploads the chunks and then the manifest from outside. The chunks
// enter the local cache here, so a send that then fails leaves chunks
// cached as store-resident that the store lacks: a wrongly skipped
// upload like any other, never a wrong result.
//
// With replace true (the entry at the primary tag failed verification,
// so a chunk may be tampered too) the probe and cache are bypassed and
// every distinct chunk is re-uploaded with Replace, healing whatever
// was bad.
func (c *call) sealChunked(job putJob) (func(), error) {
	rt, id, tc, span, replace := c.rt, c.id, c.tc, &c.span, job.replace
	chunks := rt.chunker.Split(job.result)
	man, err := chunk.BuildManifest(chunks)
	if err != nil {
		return nil, errTooManyChunks
	}
	cid := chunk.ContentFuncID(id)
	ctags := make([]mle.Tag, len(chunks))
	for i := range chunks {
		ctags[i] = chunk.Tag(cid, man.Refs[i].Hash)
	}

	// Decide which chunks must travel: each distinct tag once (a run of
	// identical content splits into identical chunks), and only if
	// neither the local cache, which records chunks known
	// store-resident, nor the HAS probe places it in the store. Both
	// are hints — a wrongly skipped upload surfaces later as a loud
	// reassembly failure and a recompute, never a wrong result.
	seen := make(map[mle.Tag]bool, len(chunks))
	var send []int // the chunks to upload
	var unknown []mle.Tag
	pick := func(i int) {
		if t := ctags[i]; !seen[t] {
			seen[t] = true
			send, unknown = append(send, i), append(unknown, t)
		}
	}
	if replace {
		for i := range ctags {
			pick(i)
		}
	} else {
		rt.chunkCache.lacking(ctags, pick)
	}
	if !replace && len(send) > 0 {
		var present []bool // the HAS probe is an OCALL: this runs in the enclave
		err := rt.cfg.Enclave.OCall(func() (oerr error) {
			present, oerr = rt.cfg.Client.Has(tc, unknown)
			return oerr
		})
		if err == nil && len(present) == len(send) {
			kept := send[:0]
			for j, i := range send {
				if !present[j] {
					kept = append(kept, i)
				}
			}
			send = kept
		}
	}

	span.begin(phaseEncrypt)
	items := make([]wire.PutItem, 0, len(send))
	for _, i := range send {
		sealed, eerr := rce.Encrypt(cid, man.Refs[i].Hash[:], chunks[i])
		if eerr != nil {
			span.end(phaseEncrypt)
			return nil, fmt.Errorf("encrypt chunk %d: %w", i, eerr)
		}
		items = append(items, wire.PutItem{Tag: ctags[i], Sealed: sealed, Replace: replace})
	}
	skipped := len(chunks) - len(send)
	mid := chunk.ManifestFuncID(id)
	manSealed, err := rce.Encrypt(mid, job.input, man.Encode())
	span.end(phaseEncrypt)
	if err != nil {
		return nil, fmt.Errorf("encrypt manifest: %w", err)
	}

	for i := range chunks {
		// The chunks alias the caller's result: the cache borrows them.
		if _, ok := rt.chunkCache.get(ctags[i]); !ok {
			rt.chunkCache.offer(ctags[i], chunks[i], true)
		}
	}
	return func() {
		// A rejected chunk would leave the manifest referencing a hole;
		// don't install it. The caller already has its result — only
		// future reuse is lost.
		err := rt.clientPutAll(tc, "chunk", items)
		if err == nil {
			err = rt.clientPutAll(tc, "manifest", []wire.PutItem{{Tag: job.tag, Sealed: manSealed, Replace: replace}})
		}
		if err != nil {
			rt.notePutError(err)
			return
		}
		rt.record.put(job.tag, manSealed)
		rt.mu.Lock()
		rt.stats.ChunkedPuts++
		rt.stats.ChunksSkipped += int64(skipped)
		rt.mu.Unlock()
	}, nil
}

// manifestReuse serves a hit whose primary-tag entry is a sealed
// manifest: open it, unless it is the one predict opened, fill each
// chunk's bytes of one output from the chunk cache, the prefetched
// chunks or, verified against its ref, one more BatchGet. There is no
// whole-result pass (chunk/manifest.go's trust model says why).
// Any failure past manifest decryption means the stored data is
// unusable and the caller recomputes loudly; errNoManifest alone means
// the entry was never a manifest.
func (c *call) manifestReuse(it *item, pred *openedManifest, sealed mle.Sealed) ([]byte, error) {
	rt, span, m := c.rt, &c.span, pred
	if !pred.is(sealed) {
		var err error
		if m, err = openManifest(c.id, it.input, sealed); err != nil {
			return nil, err
		}
		rt.record.put(it.tag, sealed)
	}

	// Each chunk fills exactly its ref's length at its offset, and
	// DecodeManifest checked that the lengths sum to Total. A tag neither
	// tier holds is fetched, unless the call has it already, opened and
	// verified once; its repeats share its plaintext.
	cid, refs := chunk.ContentFuncID(c.id), m.man.Refs
	out := make([]byte, m.man.Total)
	type hole struct{ i, at int } // a chunk neither tier held, offered to the enclave tier in order
	var missing []hole
	var fetch []mle.Tag
	for i, at := 0, 0; i < len(refs); i++ {
		t, n := m.tags[i], int(refs[i].Length)
		if !rt.chunkCache.fill(t, out[at:at+n]) {
			missing = append(missing, hole{i, at})
			if _, ok := c.fetchedAt[t]; !ok {
				fetch = append(fetch, t)
			}
		}
		at += n
	}
	if fetch = c.unfetched(fetch); len(fetch) > 0 {
		// Store time, not verification time: it accrues to store_get.
		span.end(phaseVerifyDecrypt)
		got, err := rt.clientGet(c.tc, fetch, span)
		span.begin(phaseVerifyDecrypt)
		if err != nil {
			for _, t := range fetch {
				delete(c.fetchedAt, t) // a later leader fetches it again
			}
			return nil, fmt.Errorf("%w: %w", errFetchChunks, err)
		}
		c.fetched = append(c.fetched, got...)
		c.opened = append(c.opened, make([][]byte, len(got))...)
	}
	// Booked before verification: a store serving bad chunks shows them.
	rt.mu.Lock()
	rt.stats.ChunksFetched += int64(len(fetch))
	rt.stats.ChunkCacheHits += int64(len(refs) - len(missing))
	if len(fetch) > 0 {
		rt.stats.PrefetchMisses++
	}
	rt.mu.Unlock()
	for _, h := range missing {
		t, ref := m.tags[h.i], &refs[h.i] // a copy would escape with ref.Hash[:]
		k := c.fetchedAt[t]
		if data := c.opened[k]; data != nil && len(data) == int(ref.Length) {
			copy(out[h.at:], data)
			continue
		}
		r := c.fetched[k]
		if !r.Found {
			return nil, fmt.Errorf("chunk %d/%d missing from store", h.i+1, len(refs))
		}
		data, derr := rce.Decrypt(cid, ref.Hash[:], r.Sealed)
		if derr != nil {
			return nil, fmt.Errorf("decrypt chunk %d/%d: %w", h.i+1, len(refs), derr)
		}
		// Length first: a wrong-length chunk must never reach the output.
		if len(data) != int(ref.Length) || chunk.Hash(data) != ref.Hash {
			return nil, fmt.Errorf("chunk %d/%d failed content verification", h.i+1, len(refs))
		}
		copy(out[h.at:], data)
		c.opened[k] = data
		rt.chunkCache.offer(t, data, false)
	}
	return out, nil
}
