package dedup

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"sync"

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

// defaultChunkCacheBytes bounds the in-enclave chunk plaintext cache
// when Config.ChunkCacheBytes is left zero.
const defaultChunkCacheBytes = 16 << 20

// chunkLRU is a byte-bounded tag -> chunk-plaintext cache. An entry
// means "this chunk was store-resident when we last touched it", so a
// producer can skip re-uploading it and a consumer can skip fetching
// it. Cached bytes are charged to the application enclave (they are
// plaintext and must stay inside the trust boundary); under EPC
// pressure caching is skipped rather than failing the call.
//
// The policy is a segmented LRU, so the chunks many results share
// outlive the ones a single result brings in. A new chunk enters
// probation; a chunk referenced again moves to the protected segment,
// which holds at most protectedShare of the budget and demotes its
// overflow to probation's head; eviction takes probation's tail. Both
// segments live in one list split by a marker element: protected
// entries before it, probation entries after it.
type chunkLRU struct {
	mu        sync.Mutex
	max       int64
	bytes     int64
	protected int64 // bytes of the entries before mid
	enc       *enclave.Enclave
	lru       *list.List                // protected, mid, probation; each most recent first
	mid       *list.Element             // the segment marker; its value is nil
	m         map[mle.Tag]*list.Element // nil once closed
}

type chunkEntry struct {
	tag       mle.Tag
	data      []byte
	protected bool
}

// protectedShare is the fraction of the byte budget the protected
// segment may hold.
const protectedShare = 4.0 / 5

func newChunkLRU(enc *enclave.Enclave, max int64) *chunkLRU {
	c := &chunkLRU{max: max, enc: enc, lru: list.New(), m: make(map[mle.Tag]*list.Element)}
	c.mid = c.lru.PushFront(nil)
	return c
}

// get returns the cached plaintext for tag, counting a reference.
// The returned slice is shared and must be treated as read-only.
func (c *chunkLRU) get(tag mle.Tag) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[tag]
	if !ok {
		return nil, false
	}
	c.touch(el)
	return el.Value.(*chunkEntry).data, true
}

// contains is get without counting a reference, for pure skip checks.
func (c *chunkLRU) contains(tag mle.Tag) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[tag]
	return ok
}

// touch records a reference to el: it moves to the protected head, and
// the protected tail is demoted past the marker until the segment fits
// its share again.
func (c *chunkLRU) touch(el *list.Element) {
	if e := el.Value.(*chunkEntry); !e.protected {
		e.protected = true
		c.protected += int64(len(e.data))
	}
	c.lru.MoveToFront(el)
	for c.protected > int64(protectedShare*float64(c.max)) {
		tail := c.mid.Prev()
		e := tail.Value.(*chunkEntry)
		e.protected = false
		c.protected -= int64(len(e.data))
		c.lru.MoveBefore(c.mid, tail)
	}
}

// add caches data under tag in probation, taking ownership of it (the
// caller must not modify it again), and evicts from probation's tail to
// stay in budget. Adding a cached tag counts a reference instead; after
// close, add does nothing.
func (c *chunkLRU) add(tag mle.Tag, data []byte) {
	n := int64(len(data))
	if n > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		return
	}
	if el, ok := c.m[tag]; ok {
		c.touch(el)
		return // same tag, same content (collision-resistant hash)
	}
	if err := c.enc.Alloc(n); err != nil {
		return // enclave memory pressure: caching is optional
	}
	c.m[tag] = c.lru.InsertAfter(&chunkEntry{tag: tag, data: data}, c.mid)
	c.bytes += n
	for c.bytes > c.max {
		// Probation's tail: probation is never empty here, since the
		// protected segment holds at most protectedShare of max.
		victim := c.lru.Remove(c.lru.Back()).(*chunkEntry)
		delete(c.m, victim.tag)
		c.bytes -= int64(len(victim.data))
		c.enc.Free(int64(len(victim.data)))
	}
}

// close empties the cache and frees its whole enclave charge; the
// cache stays empty afterwards.
func (c *chunkLRU) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Free(c.bytes)
	c.lru.Init()
	c.m, c.bytes = nil, 0
}

// clientHas probes the store for the given tags inside an OCALL
// (callers hold the enclave).
func (rt *Runtime) clientHas(tc wire.TraceContext, tags []mle.Tag) ([]bool, error) {
	var present []bool
	err := rt.cfg.Enclave.OCall(func() error {
		var oerr error
		present, oerr = rt.cfg.Client.Has(tc, tags)
		return oerr
	})
	if err == nil && len(present) != len(tags) {
		return nil, fmt.Errorf("dedup: has returned %d answers for %d tags", len(present), len(tags))
	}
	return present, err
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
// every chunk is re-uploaded with Replace, healing whatever was bad.
func (rt *Runtime) sealChunked(job putJob, span *execSpan) (func(), error) {
	id, tc, replace := job.id, job.tc, job.replace
	chunks := rt.chunker.Split(job.result)
	if len(chunks) > chunk.MaxManifestChunks {
		return nil, errTooManyChunks
	}
	man, err := chunk.BuildManifest(chunks)
	if err != nil {
		return nil, errTooManyChunks
	}
	cid := chunk.ContentFuncID(id)
	ctags := make([]mle.Tag, len(chunks))
	for i := range chunks {
		ctags[i] = chunk.Tag(cid, man.Refs[i].Hash)
	}

	// Decide which chunks must travel. The local cache records chunks
	// known store-resident; the HAS probe covers the rest. Both
	// are hints — a wrongly skipped upload surfaces later as a loud
	// reassembly failure and a recompute, never a wrong result.
	need := make([]bool, len(chunks))
	if replace {
		for i := range need {
			need[i] = true
		}
	} else {
		var unknownTags []mle.Tag
		var unknownIdx []int
		for i, t := range ctags {
			if rt.chunkCache.contains(t) {
				continue
			}
			need[i] = true
			unknownTags = append(unknownTags, t)
			unknownIdx = append(unknownIdx, i)
		}
		if len(unknownTags) > 0 {
			if present, perr := rt.clientHas(tc, unknownTags); perr == nil {
				for j, p := range present {
					if p {
						need[unknownIdx[j]] = false
					}
				}
			}
		}
	}

	span.begin(phaseEncrypt)
	var items []wire.PutItem
	skipped := 0
	for i := range chunks {
		if !need[i] {
			skipped++
			continue
		}
		sealed, eerr := rt.cfg.Scheme.Encrypt(cid, man.Refs[i].Hash[:], chunks[i])
		if eerr != nil {
			span.end(phaseEncrypt)
			return nil, fmt.Errorf("encrypt chunk %d: %w", i, eerr)
		}
		items = append(items, wire.PutItem{Tag: ctags[i], Sealed: sealed, Replace: replace})
	}
	mid := chunk.ManifestFuncID(id)
	manSealed, err := rt.cfg.Scheme.Encrypt(mid, job.input, man.Encode())
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
// manifest: decrypt it under the derived identity, copy cached chunks
// into their slots of one pre-sized output, fetch the rest with one
// BatchGet and verify each against its ref before copying it in. There
// is no whole-result pass (chunk/manifest.go's trust model says why).
// Any failure past manifest decryption means the stored data is
// unusable and the caller recomputes loudly; errNoManifest alone means
// the entry was never a manifest.
func (rt *Runtime) manifestReuse(id mle.FuncID, input []byte, tc wire.TraceContext, sealed mle.Sealed, span *execSpan) ([]byte, error) {
	enc, err := rt.cfg.Scheme.Decrypt(chunk.ManifestFuncID(id), input, sealed)
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

	// DecodeManifest checked that the lengths sum to Total: slots tile out.
	cid := chunk.ContentFuncID(id)
	out := make([]byte, man.Total)
	var missingTags []mle.Tag
	var missingIdx, missingOff []int
	cacheHits, off := 0, 0
	for i, ref := range man.Refs {
		t := chunk.Tag(cid, ref.Hash)
		if data, ok := rt.chunkCache.get(t); ok && len(data) == int(ref.Length) {
			copy(out[off:], data)
			cacheHits++
		} else {
			missingTags = append(missingTags, t)
			missingIdx = append(missingIdx, i)
			missingOff = append(missingOff, off)
		}
		off += int(ref.Length)
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
		ref := man.Refs[i]
		if !r.Found {
			return nil, fmt.Errorf("chunk %d/%d missing from store", i+1, len(man.Refs))
		}
		data, derr := rt.cfg.Scheme.Decrypt(cid, ref.Hash[:], r.Sealed)
		if derr != nil {
			return nil, fmt.Errorf("decrypt chunk %d/%d: %w", i+1, len(man.Refs), derr)
		}
		// Length first: a wrong-length chunk must never reach a slot.
		if len(data) != int(ref.Length) || chunk.Hash(data) != ref.Hash {
			return nil, fmt.Errorf("chunk %d/%d failed content verification", i+1, len(man.Refs))
		}
		copy(out[missingOff[j]:], data)
		// The cache adopts data; out holds a copy, so never aliases it.
		rt.chunkCache.add(missingTags[j], data)
	}
	return out, nil
}
