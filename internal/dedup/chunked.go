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

// defaultChunkCacheBytes bounds the in-enclave chunk plaintext cache.
const defaultChunkCacheBytes = 16 << 20

// sketchRows is the depth of the chunk cache's count-min sketch. Row r
// indexes by the tag's r-th 8-byte word: a chunk tag is a SHA-256
// output, so its words are already independent hashes.
const sketchRows = 4

// chunkCache is a byte-bounded tag -> chunk-plaintext cache. An entry
// means "this chunk was store-resident when we last touched it", so a
// producer can skip re-uploading it and a consumer can skip fetching
// it. Cached bytes are charged to the application enclave (they are
// plaintext and must stay inside the trust boundary); under EPC
// pressure caching is skipped rather than failing the call.
//
// The policy is CLOCK behind TinyLFU admission (Einziger, Friedman and
// Manes, ACM TOS 2017), so the chunks many results share outlive the
// ones a single result brings in: a full cache evicts the first entry
// its hand finds unreferenced only for a candidate the sketch counts
// strictly more often, and otherwise drops the candidate.
type chunkCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	enc     *enclave.Enclave
	ring    []chunkEntry
	hand    int
	m       map[mle.Tag]int // tag -> ring index; nil once closed
	sketch  []uint8         // sketchRows rows of width counters, each at most 15
	width   int             // a power of two
	counted int64           // increments since the counters last halved
	rejects atomic.Int64    // candidates add dropped
}

type chunkEntry struct {
	tag  mle.Tag
	data []byte
	ref  bool
}

func newChunkCache(enc *enclave.Enclave, max int64) *chunkCache {
	c := &chunkCache{max: max, enc: enc, width: 1}
	for int64(c.width) < 4*max/chunk.DefaultAvg {
		c.width <<= 1
	}
	if enc.Alloc(sketchRows*int64(c.width)) == nil { // else it starts closed
		c.sketch = make([]uint8, sketchRows*c.width)
		c.m = make(map[mle.Tag]int)
	}
	return c
}

// get counts a reference to tag, sets its reference bit if cached and
// returns its plaintext. The slice is shared and must stay read-only.
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

// contains is get without counting a reference, for pure skip checks.
func (c *chunkCache) contains(tag mle.Tag) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[tag]
	return ok
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

// add caches data under tag, taking ownership of it (the caller must
// not modify it again), if it fits or wins admission over each victim
// it must evict; a rejected candidate leaves the hand on its victim.
// Adding a cached tag, or after close, does nothing.
func (c *chunkCache) add(tag mle.Tag, data []byte) {
	n := int64(len(data))
	if n > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		return
	}
	if _, ok := c.m[tag]; ok {
		return // same tag, same content (collision-resistant hash)
	}
	for c.bytes+n > c.max {
		// The ring is not empty: bytes > max-n >= 0.
		switch v := &c.ring[c.hand]; {
		case v.ref:
			v.ref = false
		case c.estimate(tag) <= c.estimate(v.tag):
			c.rejects.Add(1)
			return
		default:
			// Swap-remove: the last entry, most often the newest, takes
			// the victim's slot, and the hand passes it by.
			last := len(c.ring) - 1
			delete(c.m, v.tag)
			c.bytes -= int64(len(v.data))
			c.enc.Free(int64(len(v.data)))
			if c.hand != last {
				*v = c.ring[last]
				c.m[v.tag] = c.hand
			}
			c.ring[last] = chunkEntry{}
			c.ring = c.ring[:last]
		}
		if c.hand++; c.hand >= len(c.ring) {
			c.hand = 0
		}
	}
	if err := c.enc.Alloc(n); err != nil {
		return // enclave memory pressure: caching is optional
	}
	c.m[tag] = len(c.ring)
	c.ring = append(c.ring, chunkEntry{tag: tag, data: data})
	c.bytes += n
}

// close empties the cache and frees its whole enclave charge, sketch
// included; the cache stays empty afterwards.
func (c *chunkCache) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Free(c.bytes + int64(len(c.sketch)))
	c.ring, c.m, c.sketch, c.bytes = nil, nil, nil, 0
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
	for i, t := range ctags {
		if !seen[t] && (replace || !rt.chunkCache.contains(t)) {
			send = append(send, i)
			unknown = append(unknown, t)
		}
		seen[t] = true
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
		// The chunks alias the caller's result: the cache gets clones.
		if _, ok := rt.chunkCache.get(ctags[i]); !ok {
			rt.chunkCache.add(ctags[i], bytes.Clone(chunks[i]))
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
		rt.mu.Lock()
		rt.stats.ChunkedPuts++
		rt.stats.ChunksSkipped += int64(skipped)
		rt.mu.Unlock()
	}, nil
}

// manifestReuse serves a hit whose primary-tag entry is a sealed
// manifest: decrypt it under the derived identity, fill each chunk's
// slot from the cache or, verified against its ref, from one BatchGet,
// and join the slots. There is no whole-result pass (chunk/manifest.go's
// trust model says why).
// Any failure past manifest decryption means the stored data is
// unusable and the caller recomputes loudly; errNoManifest alone means
// the entry was never a manifest.
func (rt *Runtime) manifestReuse(id mle.FuncID, input []byte, tc wire.TraceContext, sealed mle.Sealed, span *execSpan) ([]byte, error) {
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

	// Every slot is checked to hold its ref's length, and DecodeManifest
	// that the lengths sum to Total. A tag the cache misses is fetched,
	// opened and verified once; its repeats share its slot.
	cid := chunk.ContentFuncID(id)
	slots := make([][]byte, len(man.Refs))
	var missingTags []mle.Tag
	var missingIdx []int
	first := make(map[mle.Tag]int) // missing tag -> its index in missingTags
	var repeats [][2]int           // a repeat's slot, its first slot
	cacheHits := 0
	for i, ref := range man.Refs {
		t := chunk.Tag(cid, ref.Hash)
		if data, ok := rt.chunkCache.get(t); ok && len(data) == int(ref.Length) {
			slots[i] = data
			cacheHits++
		} else if j, ok := first[t]; ok && man.Refs[missingIdx[j]].Length == ref.Length {
			repeats = append(repeats, [2]int{i, missingIdx[j]})
		} else {
			first[t] = len(missingTags)
			missingTags = append(missingTags, t)
			missingIdx = append(missingIdx, i)
		}
	}

	var got []wire.GetResult
	if len(missingTags) > 0 {
		// The fetch is store time, not verification time: it accrues to
		// store_get, and verify_decrypt resumes once it returns.
		span.end(phaseVerifyDecrypt)
		got, err = rt.clientGet(tc, missingTags, span)
		span.begin(phaseVerifyDecrypt)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", errFetchChunks, err)
		}
	}
	// Booked before verification: a store serving bad chunks shows them.
	rt.mu.Lock()
	rt.stats.ChunksFetched += int64(len(missingTags))
	rt.stats.ChunkCacheHits += int64(cacheHits)
	rt.mu.Unlock()
	for j, r := range got {
		i := missingIdx[j]
		ref := &man.Refs[i] // a copy would escape with ref.Hash[:]
		if !r.Found {
			return nil, fmt.Errorf("chunk %d/%d missing from store", i+1, len(man.Refs))
		}
		data, derr := rce.Decrypt(cid, ref.Hash[:], r.Sealed)
		if derr != nil {
			return nil, fmt.Errorf("decrypt chunk %d/%d: %w", i+1, len(man.Refs), derr)
		}
		// Length first: a wrong-length chunk must never reach a slot.
		if len(data) != int(ref.Length) || chunk.Hash(data) != ref.Hash {
			return nil, fmt.Errorf("chunk %d/%d failed content verification", i+1, len(man.Refs))
		}
		slots[i] = data
		rt.chunkCache.add(missingTags[j], data)
	}
	for _, r := range repeats {
		slots[r[0]] = slots[r[1]]
	}
	// Join copies (the cache adopted data) into memory it does not zero.
	return bytes.Join(slots, nil), nil
}
