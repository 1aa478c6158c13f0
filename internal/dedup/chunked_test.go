package dedup

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"speed/internal/chunk"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// chunkTestThreshold keeps the chunked tests fast while still
// splitting results into many chunks with the default geometry.
const chunkTestThreshold = 32 << 10

// newChunkStore builds a platform and a shared store for multi-runtime
// chunking tests.
func newChunkStore(t testing.TB) (*enclave.Platform, *store.Store) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("create store enclave: %v", err)
	}
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return p, st
}

// newChunkRuntime attaches a fresh runtime (own enclave, own chunk
// cache) to the shared store. threshold 0 builds a pre-chunking
// runtime.
func newChunkRuntime(t testing.TB, p *enclave.Platform, st *store.Store, name string, threshold int) *Runtime {
	t.Helper()
	return newChunkRuntimeWith(t, p, st, name, Config{ChunkThreshold: threshold}, nil)
}

// newChunkRuntimeWith is newChunkRuntime with the chunking fields of
// cfg set by the caller, and with the store client passed through wrap
// (a fault injector) when wrap is non-nil.
func newChunkRuntimeWith(t testing.TB, p *enclave.Platform, st *store.Store, name string, cfg Config, wrap func(StoreClient) StoreClient) *Runtime {
	t.Helper()
	appEnc, err := p.Create(name, []byte("app code"))
	if err != nil {
		t.Fatalf("create %s enclave: %v", name, err)
	}
	cfg.Enclave, cfg.Logf = appEnc, t.Logf
	cfg.Client = NewLocalClient(st, appEnc.Measurement())
	if wrap != nil {
		cfg.Client = wrap(cfg.Client)
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime(%s): %v", name, err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	return rt
}

func chunkFuncID(t testing.TB, rt *Runtime) mle.FuncID {
	t.Helper()
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return id
}

// chunkResult derives a deterministic pseudo-random result from a seed
// — the stand-in for a large deterministic computation.
func chunkResult(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestChunkedPutThenConvergentReuse is the tentpole property: runtime A
// computes a large result and stores it chunk-wise; an independent
// runtime B (fresh enclave, fresh RCE state, empty chunk cache) issuing
// the same call reassembles it from the manifest without recomputing.
func TestChunkedPutThenConvergentReuse(t *testing.T) {
	p, st := newChunkStore(t)
	a := newChunkRuntime(t, p, st, "appA", chunkTestThreshold)
	b := newChunkRuntime(t, p, st, "appB", chunkTestThreshold)
	id := chunkFuncID(t, a)

	input := []byte("render document 1")
	want := chunkResult(1, 200<<10)
	compute := func([]byte) ([]byte, error) { return append([]byte(nil), want...), nil }

	got, outcome, err := a.Execute(id, input, compute)
	if err != nil {
		t.Fatalf("A Execute: %v", err)
	}
	if outcome != OutcomeComputed || !bytes.Equal(got, want) {
		t.Fatalf("A: outcome %v, equal %v", outcome, bytes.Equal(got, want))
	}
	if s := a.Stats(); s.ChunkedPuts != 1 {
		t.Fatalf("A ChunkedPuts = %d, want 1", s.ChunkedPuts)
	}

	bCalls := 0
	got, outcome, err = b.Execute(id, input, func(in []byte) ([]byte, error) {
		bCalls++
		return compute(in)
	})
	if err != nil {
		t.Fatalf("B Execute: %v", err)
	}
	if outcome != OutcomeReused {
		t.Fatalf("B outcome = %v, want reused", outcome)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("B reassembled a different result")
	}
	if bCalls != 0 {
		t.Fatalf("B recomputed (%d calls) instead of reusing", bCalls)
	}
	s := b.Stats()
	if s.ManifestReuses != 1 {
		t.Fatalf("B ManifestReuses = %d, want 1", s.ManifestReuses)
	}
	if s.ChunksFetched == 0 {
		t.Fatal("B fetched no chunks; manifest path not exercised")
	}
	if s.VerifyFailures != 0 {
		t.Fatalf("B VerifyFailures = %d, want 0 (manifest is not a failure)", s.VerifyFailures)
	}
}

// TestChunkedOverlapSharesChunks: two runtimes computing overlapping
// results derive identical tags for the shared chunks, so the second
// runtime's upload of them reaches the store as duplicates (its own
// chunk cache has never seen them) and the store keeps one sealed copy
// of the overlap.
func TestChunkedOverlapSharesChunks(t *testing.T) {
	p, st := newChunkStore(t)
	a := newChunkRuntime(t, p, st, "appA", chunkTestThreshold)
	b := newChunkRuntime(t, p, st, "appB", chunkTestThreshold)
	id := chunkFuncID(t, a)

	common := chunkResult(7, 128<<10)
	res1 := append(append(chunkResult(8, 32<<10), common...), chunkResult(9, 32<<10)...)
	res2 := append(append(chunkResult(10, 32<<10), common...), chunkResult(11, 32<<10)...)

	if _, _, err := a.Execute(id, []byte("doc1"), func([]byte) ([]byte, error) {
		return append([]byte(nil), res1...), nil
	}); err != nil {
		t.Fatalf("A Execute: %v", err)
	}
	before := st.Stats()
	if _, _, err := b.Execute(id, []byte("doc2"), func([]byte) ([]byte, error) {
		return append([]byte(nil), res2...), nil
	}); err != nil {
		t.Fatalf("B Execute: %v", err)
	}
	after := st.Stats()
	added := after.BlobBytes - before.BlobBytes

	// Every chunk inside the overlap is shared; the two that straddle
	// its edges may not be.
	if dupes, shared := after.PutDupes-before.PutDupes, int64(len(b.chunker.Split(common))-2); dupes < shared {
		t.Fatalf("B's upload met %d stored chunks, want at least the %d inside the %dKiB overlap", dupes, shared, len(common)>>10)
	}
	// The second result is ~192KiB but only ~64KiB of it is new; allow
	// generous slack for boundary chunks and sealing overhead.
	if added >= int64(len(res2)) {
		t.Fatalf("second upload added %d bytes, no dedup against %d-byte result", added, len(res2))
	}
}

// TestChunkThresholdKeepsSmallResultsWhole: a result below the
// threshold takes the whole-result path — no manifest, no chunk
// entries, and an independent runtime decrypts it directly.
func TestChunkThresholdKeepsSmallResultsWhole(t *testing.T) {
	p, st := newChunkStore(t)
	a := newChunkRuntime(t, p, st, "appA", chunkTestThreshold)
	b := newChunkRuntime(t, p, st, "appB", chunkTestThreshold)
	id := chunkFuncID(t, a)

	input := []byte("small call")
	want := chunkResult(3, 4<<10)
	if _, _, err := a.Execute(id, input, func([]byte) ([]byte, error) {
		return append([]byte(nil), want...), nil
	}); err != nil {
		t.Fatalf("A Execute: %v", err)
	}
	if s := a.Stats(); s.ChunkedPuts != 0 {
		t.Fatalf("A ChunkedPuts = %d for a below-threshold result", s.ChunkedPuts)
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("store holds %d entries, want 1 (whole result only)", n)
	}
	got, outcome, err := b.Execute(id, input, func([]byte) ([]byte, error) {
		t.Fatal("B recomputed a stored small result")
		return nil, nil
	})
	if err != nil || outcome != OutcomeReused || !bytes.Equal(got, want) {
		t.Fatalf("B: outcome %v err %v", outcome, err)
	}
	if s := b.Stats(); s.ManifestReuses != 0 {
		t.Fatalf("B ManifestReuses = %d on the whole-result path", s.ManifestReuses)
	}
}

// reassemblyScene is a chunked result A stored, and the handles a test
// needs to attack it: one chunk in the middle (the victim) and the
// manifest at the call's primary tag.
type reassemblyScene struct {
	t       *testing.T
	writer  StoreClient // writes straight to the shared store
	id      mle.FuncID
	input   []byte
	cid     mle.FuncID
	victim  []byte // the victim chunk's plaintext
	hash    [32]byte
	tag     mle.Tag // the victim chunk's tag
	primary mle.Tag
	// wrap, when a row sets it, is the fault injector the next reader's
	// store client goes through.
	wrap func(StoreClient) StoreClient
}

func (s *reassemblyScene) replace(tag mle.Tag, sealed mle.Sealed) {
	s.t.Helper()
	if err := putOne(s.writer, tag, sealed, true); err != nil {
		s.t.Fatalf("tamper with a replacing PUT: %v", err)
	}
}

// plant replaces the victim with an authentic seal of content under the
// victim's own identity: a chunk that decrypts, but is not the one the
// manifest names unless content is the victim's plaintext.
func (s *reassemblyScene) plant(content []byte) {
	s.t.Helper()
	sealed, err := (&mle.RCE{}).Encrypt(s.cid, s.hash[:], content)
	if err != nil {
		s.t.Fatalf("seal planted chunk: %v", err)
	}
	s.replace(s.tag, sealed)
}

// chunkSwapClient answers every Get of tag with reply in place of what
// the store holds: a store that hides or substitutes one entry.
type chunkSwapClient struct {
	StoreClient
	tag   mle.Tag
	reply wire.GetResult
}

func (c *chunkSwapClient) Get(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	res, err := c.StoreClient.Get(tc, tags)
	for i := range res {
		if tags[i] == c.tag {
			res[i] = c.reply
		}
	}
	return res, err
}

// TestChunkedReassemblyRejects: every way a store can serve a chunked
// entry that is not the result its manifest names must fail reassembly
// loudly, recompute the right bytes, and replace what was bad, so a
// fresh runtime then reuses the healed entry. The chunks a failed
// reassembly fetched still show in Stats.ChunksFetched. Each row runs
// twice: the reader fetches the chunks after opening the manifest, or
// (_by_prefetch) its host record holds the manifest as it was before
// the damage, so every chunk rides the lookup's GET, the bad one too,
// and must fail just as a fetched one does.
func TestChunkedReassemblyRejects(t *testing.T) {
	for _, row := range []struct {
		name string
		// fetched: reassembly got as far as fetching every chunk (the
		// reader's cache starts empty); false only when the manifest
		// itself is rejected.
		fetched bool
		tamper  func(s *reassemblyScene)
	}{
		{"garbage_sealed_chunk", true, func(s *reassemblyScene) {
			s.replace(s.tag, mle.Sealed{
				Challenge:  []byte("rrrrrrrrrrrrrrrr"),
				WrappedKey: []byte("kkkkkkkkkkkkkkkk"),
				Blob:       []byte("garbage ciphertext"),
			})
		}},
		{"authentic_wrong_content", true, func(s *reassemblyScene) {
			wrong := bytes.Clone(s.victim)
			wrong[len(wrong)/2] ^= 1
			s.plant(wrong)
		}},
		{"authentic_shorter", true, func(s *reassemblyScene) { s.plant(s.victim[:len(s.victim)-1]) }},
		{"authentic_longer", true, func(s *reassemblyScene) { s.plant(append(bytes.Clone(s.victim), 0)) }},
		{"chunk_not_found", true, func(s *reassemblyScene) {
			s.wrap = func(c StoreClient) StoreClient { return &chunkSwapClient{StoreClient: c, tag: s.tag} }
		}},
		{"manifest_byte_flipped", false, func(s *reassemblyScene) {
			sealed, found, err := getOne(s.writer, s.primary)
			if err != nil || !found {
				s.t.Fatalf("read the manifest: found %v, err %v", found, err)
			}
			sealed.Blob = bytes.Clone(sealed.Blob)
			sealed.Blob[len(sealed.Blob)/2] ^= 1
			s.replace(s.primary, sealed)
		}},
		// An authentic manifest in the version 1 layout, which carried a
		// 32-byte whole-result digest after Total.
		{"manifest_v1", false, func(s *reassemblyScene) {
			sealed, found, err := getOne(s.writer, s.primary)
			if err != nil || !found {
				s.t.Fatalf("read the manifest: found %v, err %v", found, err)
			}
			mid := chunk.ManifestFuncID(s.id)
			enc, err := (&mle.RCE{}).Decrypt(mid, s.input, sealed)
			if err != nil {
				s.t.Fatalf("open the manifest: %v", err)
			}
			const header = 4 + 1 + 4 + 8
			v1 := append(append(bytes.Clone(enc[:header]), make([]byte, 32)...), enc[header:]...)
			v1[4] = 1
			if sealed, err = (&mle.RCE{}).Encrypt(mid, s.input, v1); err != nil {
				s.t.Fatalf("seal the v1 manifest: %v", err)
			}
			s.replace(s.primary, sealed)
		}},
	} {
		for _, prefetch := range []bool{false, true} {
			name := row.name
			if prefetch {
				name += "_by_prefetch"
			}
			t.Run(name, func(t *testing.T) { reassemblyRejects(t, row.fetched, prefetch, row.tamper) })
		}
	}
}

func reassemblyRejects(t *testing.T, fetched, prefetch bool, tamper func(s *reassemblyScene)) {
	p, st := newChunkStore(t)
	a := newChunkRuntime(t, p, st, "appA", chunkTestThreshold)
	id := chunkFuncID(t, a)
	input := []byte("tamper target")
	want := chunkResult(5, 150<<10)
	if _, _, err := a.Execute(id, input, func([]byte) ([]byte, error) {
		return bytes.Clone(want), nil
	}); err != nil {
		t.Fatalf("A Execute: %v", err)
	}
	chunks := a.chunker.Split(want)
	if len(chunks) < 2 {
		t.Fatalf("result split into %d chunks; test needs several", len(chunks))
	}
	s := &reassemblyScene{
		t:       t,
		writer:  NewLocalClient(st, a.Enclave().Measurement()),
		id:      id,
		input:   input,
		cid:     chunk.ContentFuncID(id),
		victim:  chunks[len(chunks)/2],
		primary: mle.ComputeTag(id, input),
	}
	s.hash = chunk.Hash(s.victim)
	s.tag = chunk.Tag(s.cid, s.hash)
	before, _, err := getOne(s.writer, s.primary)
	if err != nil {
		t.Fatalf("read the manifest: %v", err)
	}
	tamper(s)

	// A fresh runtime (empty chunk cache) must detect the damage,
	// recompute, and replace the damaged entries.
	b := newChunkRuntimeWith(t, p, st, "appB", Config{ChunkThreshold: chunkTestThreshold}, s.wrap)
	if prefetch {
		b.record.put(s.primary, before)
	}
	bCalls := 0
	got, outcome, err := b.Execute(id, input, func([]byte) ([]byte, error) {
		bCalls++
		return bytes.Clone(want), nil
	})
	if err != nil {
		t.Fatalf("B Execute: %v", err)
	}
	if outcome != OutcomeRecomputed || bCalls != 1 || !bytes.Equal(got, want) {
		t.Fatalf("B: outcome %v, calls %d, result equal %v", outcome, bCalls, bytes.Equal(got, want))
	}
	wantFetched, wantPrefetched := int64(0), int64(0)
	if fetched || prefetch {
		wantFetched = int64(len(chunks))
	}
	if prefetch {
		wantPrefetched = wantFetched
	}
	wantMisses := int64(0) // hits that needed a second chunk GET
	if fetched && !prefetch {
		wantMisses = 1
	}
	if bs := b.Stats(); bs.VerifyFailures != 1 || bs.ChunksFetched != wantFetched || bs.ChunksPrefetched != wantPrefetched || bs.PrefetchMisses != wantMisses {
		t.Fatalf("B VerifyFailures = %d, ChunksFetched = %d, ChunksPrefetched = %d, PrefetchMisses = %d; want 1, %d, %d, %d",
			bs.VerifyFailures, bs.ChunksFetched, bs.ChunksPrefetched, bs.PrefetchMisses, wantFetched, wantPrefetched, wantMisses)
	}

	// The replace healed the store: a third fresh runtime reuses.
	c := newChunkRuntime(t, p, st, "appC", chunkTestThreshold)
	got, outcome, err = c.Execute(id, input, func([]byte) ([]byte, error) {
		t.Error("C recomputed after the store was healed")
		return bytes.Clone(want), nil
	})
	if err != nil || outcome != OutcomeReused || !bytes.Equal(got, want) {
		t.Fatalf("C: outcome %v err %v", outcome, err)
	}
}

// TestChunkedHitResultNotAliased: the chunk cache adopts the buffers
// reassembly decrypts into, so a caller writing over a hit's result
// must not reach the cache — neither after a hit that fetched its
// chunks nor after one served wholly from the cache.
func TestChunkedHitResultNotAliased(t *testing.T) {
	p, st := newChunkStore(t)
	a := newChunkRuntime(t, p, st, "appA", chunkTestThreshold)
	b := newChunkRuntime(t, p, st, "appB", chunkTestThreshold)
	id := chunkFuncID(t, a)
	input := []byte("shared document")
	want := chunkResult(41, 150<<10)
	if _, _, err := a.Execute(id, input, func([]byte) ([]byte, error) { return bytes.Clone(want), nil }); err != nil {
		t.Fatalf("A Execute: %v", err)
	}
	for _, hit := range []struct {
		name      string
		fromStore bool
	}{
		{"hit fetching every chunk", true},
		{"hit served from the cache", false},
		{"second hit served from the cache", false},
	} {
		before := b.Stats()
		got, outcome, err := b.Execute(id, input, func([]byte) ([]byte, error) {
			t.Errorf("%s: recomputed", hit.name)
			return bytes.Clone(want), nil
		})
		if err != nil || outcome != OutcomeReused || !bytes.Equal(got, want) {
			t.Fatalf("%s: outcome %v, err %v, result equal %v", hit.name, outcome, err, bytes.Equal(got, want))
		}
		after := b.Stats()
		if fetched := after.ChunksFetched - before.ChunksFetched; (fetched > 0) != hit.fromStore {
			t.Fatalf("%s fetched %d chunks", hit.name, fetched)
		}
		for i := range got {
			got[i] ^= 0xFF
		}
	}
}

// FuzzChunkedReassembly answers a fresh runtime's fetch of one chunk
// with bytes the fuzzer chose: a raw sealed triple, or (seal true) an
// authentic seal of fuzzer content under the chunk's own identity.
// Whatever the reply, Execute must return the right result, and reuse
// it exactly when the reply was the genuine chunk.
func FuzzChunkedReassembly(f *testing.F) {
	p, st := newChunkStore(f)
	seeder := newChunkRuntime(f, p, st, "seeder", chunkTestThreshold)
	id := chunkFuncID(f, seeder)
	input := []byte("fuzz target")
	want := chunkResult(51, 64<<10)
	compute := func([]byte) ([]byte, error) { return bytes.Clone(want), nil }
	if _, _, err := seeder.Execute(id, input, compute); err != nil {
		f.Fatalf("seed Execute: %v", err)
	}
	chunks := seeder.chunker.Split(want)
	victim := chunks[len(chunks)/2]
	cid, hash := chunk.ContentFuncID(id), chunk.Hash(victim)
	tag := chunk.Tag(cid, hash)
	genuine, found, err := getOne(NewLocalClient(st, seeder.Enclave().Measurement()), tag)
	if err != nil || !found {
		f.Fatalf("read the victim chunk: found %v, err %v", found, err)
	}

	wrong := bytes.Clone(victim)
	wrong[0] ^= 1
	f.Add(false, genuine.Challenge, genuine.WrappedKey, genuine.Blob)
	f.Add(false, []byte("rrrrrrrrrrrrrrrr"), []byte("kkkkkkkkkkkkkkkk"), []byte("garbage ciphertext"))
	f.Add(true, []byte(nil), []byte(nil), victim)
	f.Add(true, []byte(nil), []byte(nil), wrong)
	f.Add(true, []byte(nil), []byte(nil), victim[1:])
	f.Fuzz(func(t *testing.T, seal bool, challenge, wrappedKey, blob []byte) {
		reply := mle.Sealed{Challenge: challenge, WrappedKey: wrappedKey, Blob: blob}
		if seal {
			var err error
			if reply, err = (&mle.RCE{}).Encrypt(cid, hash[:], blob); err != nil {
				t.Fatalf("seal fuzzer content: %v", err)
			}
		}
		// Genuine means the reply opens to the victim's plaintext. A raw
		// triple is not compared byte for byte: a fuzz worker's setup
		// seals the victim under its own random challenge, and the
		// coordinator's seal is just as genuine.
		plain, openErr := (&mle.RCE{}).Decrypt(cid, hash[:], reply)
		isGenuine := openErr == nil && bytes.Equal(plain, victim)
		rt := newChunkRuntimeWith(t, p, st, "reader", Config{ChunkThreshold: chunkTestThreshold}, func(c StoreClient) StoreClient {
			return &chunkSwapClient{StoreClient: c, tag: tag, reply: wire.GetResult{Found: true, Sealed: reply}}
		})
		t.Cleanup(rt.Enclave().Destroy) // frees the name and the EPC for the next input
		got, outcome, err := rt.Execute(id, input, compute)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Execute = (%d bytes, %v, %v), want the %d-byte result", len(got), outcome, err, len(want))
		}
		if (outcome == OutcomeReused) != isGenuine {
			t.Fatalf("outcome %v for a reply that is genuine=%v", outcome, isGenuine)
		}
	})
}

// TestLegacyRuntimeHealsManifestEntry: a pre-chunking runtime hitting a
// manifest entry sees a clean verification failure (it cannot decrypt
// the manifest), recomputes, and replaces the primary tag with a whole
// result — and the chunk-aware runtime still reuses that.
func TestLegacyRuntimeHealsManifestEntry(t *testing.T) {
	p, st := newChunkStore(t)
	a := newChunkRuntime(t, p, st, "appA", chunkTestThreshold)
	legacy := newChunkRuntime(t, p, st, "appLegacy", 0)
	id := chunkFuncID(t, a)

	input := []byte("mixed fleet")
	want := chunkResult(6, 100<<10)
	compute := func([]byte) ([]byte, error) { return append([]byte(nil), want...), nil }
	if _, _, err := a.Execute(id, input, compute); err != nil {
		t.Fatalf("A Execute: %v", err)
	}

	got, outcome, err := legacy.Execute(id, input, compute)
	if err != nil {
		t.Fatalf("legacy Execute: %v", err)
	}
	if outcome != OutcomeRecomputed || !bytes.Equal(got, want) {
		t.Fatalf("legacy: outcome %v, want recomputed", outcome)
	}

	// The primary tag now holds a whole result; the chunk-aware runtime
	// decrypts it directly (no manifest path).
	b := newChunkRuntime(t, p, st, "appB", chunkTestThreshold)
	got, outcome, err = b.Execute(id, input, func([]byte) ([]byte, error) {
		t.Fatal("B recomputed a healed whole-result entry")
		return nil, nil
	})
	if err != nil || outcome != OutcomeReused || !bytes.Equal(got, want) {
		t.Fatalf("B: outcome %v err %v", outcome, err)
	}
	if s := b.Stats(); s.ManifestReuses != 0 {
		t.Fatalf("B took the manifest path (%d) for a whole-result entry", s.ManifestReuses)
	}
}

// TestChunkedBatchReuse: ExecuteBatch's verify loop takes the same
// manifest fallback as Execute.
func TestChunkedBatchReuse(t *testing.T) {
	p, st := newChunkStore(t)
	a := newChunkRuntime(t, p, st, "appA", chunkTestThreshold)
	b := newChunkRuntime(t, p, st, "appB", chunkTestThreshold)
	id := chunkFuncID(t, a)

	inputs := [][]byte{[]byte("batch doc 1"), []byte("batch doc 2")}
	results := map[string][]byte{
		"batch doc 1": chunkResult(21, 80<<10),
		"batch doc 2": chunkResult(22, 80<<10),
	}
	compute := func(in []byte) ([]byte, error) {
		return append([]byte(nil), results[string(in)]...), nil
	}
	if _, err := a.ExecuteBatch(id, inputs, compute); err != nil {
		t.Fatalf("A ExecuteBatch: %v", err)
	}

	res, err := b.ExecuteBatch(id, inputs, func(in []byte) ([]byte, error) {
		t.Fatalf("B recomputed %q", in)
		return nil, nil
	})
	if err != nil {
		t.Fatalf("B ExecuteBatch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || r.Outcome != OutcomeReused {
			t.Fatalf("item %d: outcome %v err %v", i, r.Outcome, r.Err)
		}
		if !bytes.Equal(r.Result, results[string(inputs[i])]) {
			t.Fatalf("item %d: wrong result", i)
		}
	}
	if s := b.Stats(); s.ManifestReuses != 2 {
		t.Fatalf("B ManifestReuses = %d, want 2", s.ManifestReuses)
	}
}

// TestChunkedCallCrossesPerMessage pins the transition budget of a
// chunked call over a real store server: the store enters its enclave
// once per request message, so the crossings of a call do not depend on
// how many chunks its result has. A miss that uploads chunks is one
// application ECALL, one OCALL (GET) and two store ECALLs (chunk PUT,
// manifest PUT): its PUTs leave after the ECALL, and the store answers
// the GET of an absent tag outside its enclave. A first hit that fetches chunks its cache lacks is one ECALL, two
// OCALLs (manifest GET, chunk GET) and two store ECALLs. A repeat hit,
// single or batched, whose runtime recorded the manifest is one of
// each: the chunks it lacks ride the manifest GET.
func TestChunkedCallCrossesPerMessage(t *testing.T) {
	env := newRemoteEnv(t)
	runtime := func(name string) *Runtime {
		enc, err := env.platform.Create(name, []byte("app code"))
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		client, err := Dial(env.client.addr, enc, env.storeEnc.Measurement())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		rt, err := NewRuntime(Config{Enclave: enc, Client: client, ChunkThreshold: chunkTestThreshold, Logf: t.Logf})
		if err != nil {
			t.Fatalf("NewRuntime(%s): %v", name, err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
		return rt
	}
	producer, editor, consumer := runtime("producer"), runtime("editor"), runtime("consumer")
	id := chunkFuncID(t, producer)

	// Two documents of very different chunk counts; the second shares its
	// first 100 KiB with the first, so the store already holds some of
	// its chunks when the editor uploads them all, and the consumer's
	// cache holds only some of them.
	small := chunkResult(31, 100<<10)
	large := append(append([]byte(nil), small...), chunkResult(32, 700<<10)...)
	results := map[string][]byte{"small": small, "large": large}
	// forget empties the consumer's chunk cache and has it reuse small
	// again, so the cache holds the shared chunks and lacks large's own.
	forget := func() {
		forgetChunks(consumer)
		if _, outcome, err := consumer.Execute(id, []byte("small"), nil); err != nil || outcome != OutcomeReused {
			t.Fatalf("reuse small: %v, %v", outcome, err)
		}
	}
	type cost struct{ appECalls, appOCalls, storeECalls int64 }
	for _, c := range []struct {
		name    string
		rt      *Runtime
		before  func()
		inputs  []string // a batch when more than one
		outcome Outcome
		want    cost
	}{
		{"miss uploading every chunk", producer, nil, []string{"small"}, OutcomeComputed, cost{1, 1, 2}},
		{"miss uploading chunks the store holds in part", editor, nil, []string{"large"}, OutcomeComputed, cost{1, 1, 2}},
		{"hit fetching every chunk", consumer, nil, []string{"small"}, OutcomeReused, cost{1, 2, 2}},
		{"hit fetching some chunks", consumer, nil, []string{"large"}, OutcomeReused, cost{1, 2, 2}},
		{"repeat hit fetching some chunks", consumer, forget, []string{"large"}, OutcomeReused, cost{1, 1, 1}},
		{"batch of repeat hits fetching some chunks", consumer, forget, []string{"large", "small"}, OutcomeReused, cost{1, 1, 1}},
		// The producer recorded the manifest it uploaded.
		{"hit after its own upload fetching every chunk", producer, func() { forgetChunks(producer) }, []string{"small"}, OutcomeReused, cost{1, 1, 1}},
	} {
		if c.before != nil {
			c.before()
		}
		app, st := c.rt.cfg.Enclave.Metrics(), env.storeEnc.Metrics()
		stats := c.rt.Stats()
		inputs := make([][]byte, len(c.inputs))
		for i, in := range c.inputs {
			inputs[i] = []byte(in)
		}
		compute := func(in []byte) ([]byte, error) { return bytes.Clone(results[string(in)]), nil }
		var res []BatchResult
		if len(inputs) == 1 {
			got, outcome, err := c.rt.Execute(id, inputs[0], compute)
			res = []BatchResult{{Result: got, Outcome: outcome, Err: err}}
		} else {
			var err error
			if res, err = c.rt.ExecuteBatch(id, inputs, compute); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for i, r := range res {
			if want := results[c.inputs[i]]; r.Err != nil || r.Outcome != c.outcome || !bytes.Equal(r.Result, want) {
				t.Fatalf("%s: %s: outcome %v (want %v), err %v, result equal %v", c.name, c.inputs[i], r.Outcome, c.outcome, r.Err, bytes.Equal(r.Result, want))
			}
		}
		app2, st2 := c.rt.cfg.Enclave.Metrics(), env.storeEnc.Metrics()
		if spent := (cost{app2.ECalls - app.ECalls, app2.OCalls - app.OCalls, st2.ECalls - st.ECalls}); spent != c.want {
			t.Errorf("%s cost %+v, want %+v", c.name, spent, c.want)
		}
		after := c.rt.Stats()
		prefetched := after.ChunksPrefetched - stats.ChunksPrefetched
		if c.before != nil && (prefetched == 0 || after.PrefetchMisses != stats.PrefetchMisses) {
			t.Errorf("%s prefetched %d chunks and missed %d predictions", c.name, prefetched, after.PrefetchMisses-stats.PrefetchMisses)
		}
		t.Logf("%s: %d chunks skipped, %d fetched (%d prefetched), %d from the chunk cache", c.name, after.ChunksSkipped-stats.ChunksSkipped,
			after.ChunksFetched-stats.ChunksFetched, prefetched, after.ChunkCacheHits-stats.ChunkCacheHits)
	}
	if s := consumer.Stats(); s.ChunkCacheHits == 0 || s.ChunksFetched < 10 {
		t.Errorf("the consumer fetched %d chunks with %d cache hits; the test wants a partial, many-chunk fetch", s.ChunksFetched, s.ChunkCacheHits)
	}
}

// forgetChunks empties both tiers of rt's chunk cache, so a hit must
// fetch every chunk again.
func forgetChunks(rt *Runtime) {
	rt.chunkCache.close()
	rt.chunkCache = newChunkCache(rt.Enclave(), defaultChunkCacheBytes, hostChunkCacheBytes)
}

// TestTamperedManifestRecord: the host keeps the manifest record, so it
// may change it at will. A flipped byte, the records of two tags
// swapped, and a stale record (an authentic older manifest the store's
// entry has since been replaced over) each cost a prediction miss, a
// second chunk GET, and never a wrong result. The hit rewrites the
// record from the store's entry, so the next repeat hit prefetches
// again.
func TestTamperedManifestRecord(t *testing.T) {
	resultOf := map[string][]byte{"x": chunkResult(71, 120<<10), "y": chunkResult(72, 120<<10)}
	for _, tc := range []struct {
		name   string
		tamper func(t *testing.T, p *enclave.Platform, st *store.Store, rt *Runtime, id mle.FuncID, tags map[string]mle.Tag)
	}{
		{"byte_flipped", func(_ *testing.T, _ *enclave.Platform, _ *store.Store, rt *Runtime, _ mle.FuncID, tags map[string]mle.Tag) {
			s := rt.record.cur[tags["x"]].Clone()
			s.Blob[len(s.Blob)/2] ^= 1
			rt.record.cur[tags["x"]] = s
		}},
		{"swapped_between_tags", func(_ *testing.T, _ *enclave.Platform, _ *store.Store, rt *Runtime, _ mle.FuncID, tags map[string]mle.Tag) {
			r := rt.record.cur
			r[tags["x"]], r[tags["y"]] = r[tags["y"]], r[tags["x"]]
		}},
		{"stale_after_replace", func(t *testing.T, p *enclave.Platform, st *store.Store, rt *Runtime, id mle.FuncID, tags map[string]mle.Tag) {
			// x's result changes, and a runtime that recomputes it over a
			// poisoned entry replaces the manifest and its chunks; rt's
			// record still holds the authentic manifest of the old result.
			resultOf["x"] = chunkResult(73, 130<<10)
			poison := mle.Sealed{Challenge: []byte("c"), WrappedKey: []byte("k"), Blob: []byte("poison")}
			if err := putOne(NewLocalClient(st, rt.Enclave().Measurement()), tags["x"], poison, true); err != nil {
				t.Fatalf("poison: %v", err)
			}
			healer := newChunkRuntime(t, p, st, "healer", chunkTestThreshold)
			if _, outcome, err := healer.Execute(id, []byte("x"), func([]byte) ([]byte, error) { return bytes.Clone(resultOf["x"]), nil }); err != nil || outcome != OutcomeRecomputed {
				t.Fatalf("healer: %v, %v", outcome, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resultOf["x"] = chunkResult(71, 120<<10)
			p, st := newChunkStore(t)
			writer := newChunkRuntime(t, p, st, "writer", chunkTestThreshold)
			rt := newChunkRuntime(t, p, st, "reader", chunkTestThreshold)
			id := chunkFuncID(t, writer)
			compute := func(in []byte) ([]byte, error) { return bytes.Clone(resultOf[string(in)]), nil }
			tags := map[string]mle.Tag{}
			for _, in := range []string{"x", "y"} {
				tags[in] = mle.ComputeTag(id, []byte(in))
				if _, _, err := writer.Execute(id, []byte(in), compute); err != nil {
					t.Fatalf("writer %s: %v", in, err)
				}
				if _, outcome, err := rt.Execute(id, []byte(in), compute); err != nil || outcome != OutcomeReused {
					t.Fatalf("reader %s: %v, %v", in, outcome, err)
				}
			}
			tc.tamper(t, p, st, rt, id, tags)

			for _, round := range []string{"after tampering", "after the record healed"} {
				forgetChunks(rt)
				before := rt.Stats()
				got, outcome, err := rt.Execute(id, []byte("x"), func(in []byte) ([]byte, error) {
					t.Errorf("%s: recomputed a stored result", round)
					return compute(in)
				})
				if err != nil || outcome != OutcomeReused || !bytes.Equal(got, resultOf["x"]) {
					t.Fatalf("%s: outcome %v, err %v, result equal %v", round, outcome, err, bytes.Equal(got, resultOf["x"]))
				}
				after := rt.Stats()
				misses, prefetched := after.PrefetchMisses-before.PrefetchMisses, after.ChunksPrefetched-before.ChunksPrefetched
				if round == "after tampering" && misses != 1 {
					t.Errorf("%s: %d prediction misses, want 1", round, misses)
				}
				if round != "after tampering" && (misses != 0 || prefetched == 0) {
					t.Errorf("%s: %d prediction misses, %d chunks prefetched; want 0 and some", round, misses, prefetched)
				}
			}
		})
	}
}

// TestChunkedRepeatHitsConcurrent: goroutines sharing one runtime, its
// manifest record and both tiers of its chunk cache read and recompute
// overlapping chunked results at once, while small tiers keep hits
// predicting, fetching and unsealing host entries; every call returns
// the right bytes. Run it under -race.
func TestChunkedRepeatHitsConcurrent(t *testing.T) {
	p, st := newChunkStore(t)
	rt := newChunkRuntime(t, p, st, "app", chunkTestThreshold)
	rt.chunkCache.close()
	rt.chunkCache = newChunkCache(rt.Enclave(), 64<<10, 64<<10)
	id := chunkFuncID(t, rt)
	base := chunkResult(81, 96<<10)
	compute := func(in []byte) ([]byte, error) {
		return append(bytes.Clone(base), chunkResult(int64(in[0]), 32<<10)...), nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				in := []byte{byte((g + i) % 6)}
				want, _ := compute(in)
				if got, _, err := rt.Execute(id, in, compute); err != nil || !bytes.Equal(got, want) {
					t.Errorf("input %d: err %v, result equal %v", in[0], err, bytes.Equal(got, want))
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := rt.Stats(); s.ChunksPrefetched == 0 || s.ChunkSpillHits == 0 {
		t.Errorf("hits prefetched %d chunks and unsealed %d from the host tier; want some of each", s.ChunksPrefetched, s.ChunkSpillHits)
	}
}

// spillOnly gives rt a chunk cache whose enclave tier admits nothing,
// so every chunk it reads or produces goes sealed to the host tier.
func spillOnly(rt *Runtime) {
	rt.chunkCache.close()
	rt.chunkCache = newChunkCache(rt.Enclave(), 0, hostChunkCacheBytes)
}

// hostEntry is the host tier's entry for tag, which the test may change
// as the host can.
func hostEntry(t *testing.T, rt *Runtime, tag mle.Tag) *chunkEntry {
	t.Helper()
	h := rt.chunkCache.host
	i, ok := h.m[tag]
	if !ok {
		t.Fatalf("the host tier holds no entry for %x...", tag[:4])
	}
	return &h.ring[i]
}

// TestTamperedChunkSpill: the host tier lives in untrusted memory, so
// the host may change its entries at will. A flipped byte, the entries
// of two equal-length chunks swapped between their tags, a ciphertext
// cut short, and an entry sealed under the right tag for a chunk one
// byte short each fail to fill their chunk: the hit fetches each such
// chunk in one more GET, counts the failure, drops the entry and
// returns the right bytes. The fetched chunk is sealed afresh, so the
// next hit fails nothing and fetches nothing.
func TestTamperedChunkSpill(t *testing.T) {
	p, st := newChunkStore(t)
	writer := newChunkRuntime(t, p, st, "writer", chunkTestThreshold)
	id := chunkFuncID(t, writer)
	// y is x with one byte changed inside a middle chunk, far from its
	// cuts: the cut points stay, so that chunk and its edit have equal
	// lengths and different tags.
	x := chunkResult(91, 120<<10)
	xc := writer.chunker.Split(x)
	k, at := len(xc)/2, 0
	for _, c := range xc[:k] {
		at += len(c)
	}
	y := bytes.Clone(x)
	y[at+len(xc[k])/2] ^= 0xff
	yc := writer.chunker.Split(y)
	if len(yc) != len(xc) || len(yc[k]) != len(xc[k]) || bytes.Equal(yc[k], xc[k]) {
		t.Fatalf("editing chunk %d moved its cuts; the test wants equal lengths", k)
	}
	resultOf := map[string][]byte{"x": x, "y": y}
	compute := func(in []byte) ([]byte, error) { return bytes.Clone(resultOf[string(in)]), nil }
	for _, in := range []string{"x", "y"} {
		if _, _, err := writer.Execute(id, []byte(in), compute); err != nil {
			t.Fatalf("writer %s: %v", in, err)
		}
	}
	cid := chunk.ContentFuncID(id)
	xt, yt := chunk.Tag(cid, chunk.Hash(xc[k])), chunk.Tag(cid, chunk.Hash(yc[k]))

	for _, tc := range []struct {
		name   string
		reads  []string // each fails one entry
		tamper func(t *testing.T, rt *Runtime)
	}{
		{"byte_flipped", []string{"x"}, func(t *testing.T, rt *Runtime) {
			e := hostEntry(t, rt, xt)
			e.data = bytes.Clone(e.data)
			e.data[len(e.data)/2] ^= 1
		}},
		{"swapped_between_tags", []string{"x", "y"}, func(t *testing.T, rt *Runtime) {
			ex, ey := hostEntry(t, rt, xt), hostEntry(t, rt, yt)
			ex.data, ey.data = ey.data, ex.data
		}},
		{"cut_short", []string{"x"}, func(t *testing.T, rt *Runtime) {
			e := hostEntry(t, rt, xt)
			e.data = e.data[:len(e.data)-1]
		}},
		{"sealed_short", []string{"x"}, func(t *testing.T, rt *Runtime) {
			sealed, err := rt.Enclave().Seal(nil, xc[k][:len(xc[k])-1], spillAD(xt))
			if err != nil {
				t.Fatal(err)
			}
			hostEntry(t, rt, xt).data = sealed
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newChunkRuntime(t, p, st, "reader-"+tc.name, chunkTestThreshold)
			spillOnly(rt)
			for _, in := range []string{"x", "y"} {
				if _, outcome, err := rt.Execute(id, []byte(in), compute); err != nil || outcome != OutcomeReused {
					t.Fatalf("reader %s: %v, %v", in, outcome, err)
				}
			}
			tc.tamper(t, rt)
			for _, round := range []string{"after tampering", "after the entries were dropped"} {
				for _, in := range tc.reads {
					before := rt.Stats()
					got, outcome, err := rt.Execute(id, []byte(in), func([]byte) ([]byte, error) {
						t.Errorf("%s: recomputed a stored result", round)
						return compute([]byte(in))
					})
					if err != nil || outcome != OutcomeReused || !bytes.Equal(got, resultOf[in]) {
						t.Fatalf("%s: %s = (%v, %v), result equal %v", round, in, outcome, err, bytes.Equal(got, resultOf[in]))
					}
					s := subStats(rt.Stats(), before)
					want := int64(1)
					if round != "after tampering" {
						want = 0
					}
					if s.ChunkSpillFailures != want || s.ChunksFetched != want || s.PrefetchMisses != want || s.ChunkSpillHits != int64(len(xc))-want {
						t.Errorf("%s: %s failed %d host entries, fetched %d chunks in %d more GETs and unsealed %d of %d; want %d, %d, %d and the rest",
							round, in, s.ChunkSpillFailures, s.ChunksFetched, s.PrefetchMisses, s.ChunkSpillHits, len(xc), want, want, want)
					}
				}
			}
		})
	}
}

// TestChunkSpillHoldsNoPlaintext scans every host-tier entry, after
// producing and reading chunked results, for any 16-byte window of
// those results, the rule TestNoPlaintextAtSinks applies at the
// process's sinks: the host tier is host memory, and must hold sealed
// bytes only.
func TestChunkSpillHoldsNoPlaintext(t *testing.T) {
	const window = 16
	p, st := newChunkStore(t)
	producer := newChunkRuntime(t, p, st, "producer", chunkTestThreshold)
	consumer := newChunkRuntime(t, p, st, "consumer", chunkTestThreshold)
	id := chunkFuncID(t, producer)
	for _, rt := range []*Runtime{producer, consumer} {
		rt.chunkCache.close()
		rt.chunkCache = newChunkCache(rt.Enclave(), 64<<10, hostChunkCacheBytes)
	}
	canaries := make(map[string]bool)
	for i := int64(0); i < 3; i++ {
		res := chunkResult(100+i, 160<<10)
		for off := 0; off+window <= len(res); off++ {
			canaries[string(res[off:off+window])] = true
		}
		for _, rt := range []*Runtime{producer, consumer} {
			if _, _, err := rt.Execute(id, []byte{byte(i)}, func([]byte) ([]byte, error) { return res, nil }); err != nil {
				t.Fatalf("Execute: %v", err)
			}
		}
	}
	for _, rt := range []*Runtime{producer, consumer} {
		h := rt.chunkCache.host
		if len(h.ring) == 0 {
			t.Fatalf("%s spilled nothing; the test wants host entries to scan", rt.Enclave().Name())
		}
		for _, e := range h.ring {
			for off := 0; off+window <= len(e.data); off++ {
				if canaries[string(e.data[off:off+window])] {
					t.Fatalf("%s: host entry %x... holds result bytes at offset %d", rt.Enclave().Name(), e.tag[:4], off)
				}
			}
		}
	}
}

// sealInHostTier seals data into rt's host tier under the chunk tag of
// the call id, as the enclave tier does with a chunk it displaces, and
// returns that tag.
func sealInHostTier(t *testing.T, rt *Runtime, id mle.FuncID, data []byte) mle.Tag {
	t.Helper()
	tag := chunk.Tag(chunk.ContentFuncID(id), chunk.Hash(data))
	sealed, err := rt.Enclave().Seal(nil, data, spillAD(tag))
	if err != nil {
		t.Fatal(err)
	}
	rt.chunkCache.host.add(tag, sealed, false, nil)
	return tag
}

// TestHostTierHitStaysSealed: a hit whose chunks all sit sealed in the
// host tier unseals each straight into its output and leaves it there.
// No chunk is fetched or promoted: the enclave tier holds the same
// bytes as before, and every chunk counts as a chunk cache hit.
func TestHostTierHitStaysSealed(t *testing.T) {
	p, st := newChunkStore(t)
	writer := newChunkRuntime(t, p, st, "writer", chunkTestThreshold)
	reader := newChunkRuntime(t, p, st, "reader", chunkTestThreshold)
	id := chunkFuncID(t, writer)
	want := chunkResult(61, 160<<10)
	if _, _, err := writer.Execute(id, []byte("in"), func([]byte) ([]byte, error) { return bytes.Clone(want), nil }); err != nil {
		t.Fatalf("writer: %v", err)
	}
	var tags []mle.Tag
	for _, ch := range reader.chunker.Split(want) {
		tags = append(tags, sealInHostTier(t, reader, id, ch))
	}
	c := reader.chunkCache
	enclaveBytes, before := c.bytes, reader.Stats()
	got, outcome, err := reader.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
		t.Error("recomputed a stored result")
		return bytes.Clone(want), nil
	})
	if err != nil || outcome != OutcomeReused || !bytes.Equal(got, want) {
		t.Fatalf("reader: outcome %v, err %v, result equal %v", outcome, err, bytes.Equal(got, want))
	}
	n := int64(len(tags))
	if s := subStats(reader.Stats(), before); s.ChunkSpillHits != n || s.ChunkCacheHits != n || s.ChunksFetched != 0 {
		t.Errorf("the hit unsealed %d chunks, counted %d cache hits and fetched %d; want %d, %d and 0", s.ChunkSpillHits, s.ChunkCacheHits, s.ChunksFetched, n, n)
	}
	if c.bytes != enclaveBytes {
		t.Errorf("the enclave tier holds %d bytes after the hit, %d before", c.bytes, enclaveBytes)
	}
	for i, tg := range tags {
		if c.holds(tg) || !c.host.holds(tg) {
			t.Errorf("chunk %d: in the enclave tier %v, in the host tier %v; want only the host tier", i, c.holds(tg), c.host.holds(tg))
		}
	}
}

// TestMissLeavesHostTierChunkThere: a miss whose result has a chunk
// the host tier holds counts one reference to it, as to every chunk it
// produces, but does not admit it to the enclave tier: the chunk stays
// in the host tier alone, and the result's other chunks enter the
// enclave tier.
func TestMissLeavesHostTierChunkThere(t *testing.T) {
	p, st := newChunkStore(t)
	rt := newChunkRuntime(t, p, st, "producer", chunkTestThreshold)
	id := chunkFuncID(t, rt)
	want := chunkResult(62, 160<<10)
	chunks := rt.chunker.Split(want)
	held := sealInHostTier(t, rt, id, chunks[1])
	c := rt.chunkCache
	refs := c.estimate(held)
	if _, outcome, err := rt.Execute(id, []byte("in"), func([]byte) ([]byte, error) { return bytes.Clone(want), nil }); err != nil || outcome != OutcomeComputed {
		t.Fatalf("Execute: outcome %v, err %v", outcome, err)
	}
	if c.holds(held) || !c.host.holds(held) {
		t.Errorf("the host tier's chunk: in the enclave tier %v, in the host tier %v; want only the host tier", c.holds(held), c.host.holds(held))
	}
	if got := c.estimate(held); got != refs+1 {
		t.Errorf("the host tier's chunk counts %d references after the miss, %d before; want one more", got, refs)
	}
	for i, ch := range chunks {
		if tg := chunk.Tag(chunk.ContentFuncID(id), chunk.Hash(ch)); tg != held && !c.holds(tg) {
			t.Errorf("chunk %d of the miss is not in the enclave tier", i)
		}
	}
}

// TestManifestRecordBound: the record keeps under its byte budget,
// holding sealed triples and nothing else, however many manifests pass
// through it; a lookup gets a copy the host can no longer change.
func TestManifestRecordBound(t *testing.T) {
	var r manifestRecord
	sealedOf := func(i int) mle.Sealed {
		return mle.Sealed{Challenge: bytes.Repeat([]byte{byte(i)}, 16), WrappedKey: make([]byte, 16), Blob: make([]byte, 1200+i%500)}
	}
	put := map[mle.Tag]int{}
	for i := 0; i < 20000; i++ {
		r.put(hashTag(i), sealedOf(i))
		put[hashTag(i)] = i
		if i%250 != 0 {
			continue
		}
		held := 0
		for _, gen := range []map[mle.Tag]mle.Sealed{r.cur, r.old} {
			for tag, s := range gen {
				held += s.Size()
				if j, ok := put[tag]; !ok || !reflect.DeepEqual(s, sealedOf(j)) {
					t.Fatalf("the record holds %x..., which is not a triple put under it", tag[:4])
				}
			}
		}
		if held > manifestRecordBytes {
			t.Fatalf("after %d puts the record holds %d bytes, over %d", i+1, held, manifestRecordBytes)
		}
	}
	// The newest manifests are held, the oldest gone.
	if _, ok := r.get(hashTag(0)); ok {
		t.Error("the oldest manifest survived 20,000 newer ones")
	}
	s, ok := r.get(hashTag(19999))
	if !ok || !bytes.Equal(s.Challenge, sealedOf(19999).Challenge) {
		t.Fatal("the newest manifest is not held")
	}
	s.Blob[0] ^= 1
	if again, _ := r.get(hashTag(19999)); again.Blob[0] != 0 {
		t.Error("a lookup's copy aliases the record")
	}
	// A forgotten tag reads as absent.
	r.put(hashTag(19999), mle.Sealed{})
	if _, ok := r.get(hashTag(19999)); ok {
		t.Error("a forgotten manifest is still held")
	}
}

// byteCounter counts the tag and sealed-payload bytes that cross a
// store client: the deployment's transfer volume.
type byteCounter struct {
	StoreClient
	n atomic.Int64
}

func sealedLen(s mle.Sealed) int64 {
	return int64(len(s.Challenge) + len(s.WrappedKey) + len(s.Blob))
}

func (c *byteCounter) Get(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	c.n.Add(int64(len(tags) * len(mle.Tag{})))
	res, err := c.StoreClient.Get(tc, tags)
	for _, r := range res {
		if r.Found {
			c.n.Add(sealedLen(r.Sealed))
		}
	}
	return res, err
}

func (c *byteCounter) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	for _, it := range items {
		c.n.Add(int64(len(it.Tag)) + sealedLen(it.Sealed))
	}
	return c.StoreClient.Put(tc, items)
}

// chunkDeployment runs a producer and then an independent consumer
// over results on a fresh store and returns the bytes the producer left
// stored and the bytes both moved over their store clients.
func chunkDeployment(t *testing.T, threshold int, results [][]byte) (stored, moved int64) {
	t.Helper()
	p, st := newChunkStore(t)
	defer st.Close()
	for _, consumer := range []bool{false, true} {
		enc, err := p.Create(fmt.Sprintf("app-%v", consumer), []byte("app code"))
		if err != nil {
			t.Fatalf("create enclave: %v", err)
		}
		client := &byteCounter{StoreClient: NewLocalClient(st, enc.Measurement())}
		rt, err := NewRuntime(Config{Enclave: enc, Client: client, ChunkThreshold: threshold, Logf: t.Logf})
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
		id := chunkFuncID(t, rt)
		for i, want := range results {
			got, outcome, err := rt.Execute(id, []byte(fmt.Sprintf("doc-%d", i)), func([]byte) ([]byte, error) {
				if consumer {
					return nil, fmt.Errorf("consumer recomputed doc %d", i)
				}
				return append([]byte(nil), want...), nil
			})
			if err != nil || !bytes.Equal(got, want) || (consumer && outcome != OutcomeReused) {
				t.Fatalf("threshold %d, consumer %v, doc %d: outcome %v, err %v", threshold, consumer, i, outcome, err)
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if !consumer {
			stored = st.Stats().BlobBytes
		}
		moved += client.n.Load()
	}
	return stored, moved
}

// TestChunkedSavingsAtHalfOverlap is the chunking payoff, by count: on
// 12 results of 256 KiB that share their middle half (unique head ‖
// shared middle ‖ unique tail, one fixed seed), chunked dedup stores and
// moves at least 30% fewer bytes than whole-result dedup.
func TestChunkedSavingsAtHalfOverlap(t *testing.T) {
	const docs, size = 12, 256 << 10
	rng := rand.New(rand.NewSource(500_000_007))
	shared := make([]byte, size/2)
	rng.Read(shared)
	results := make([][]byte, docs)
	for i := range results {
		head, tail := make([]byte, size/4), make([]byte, size/4)
		rng.Read(head)
		rng.Read(tail)
		results[i] = append(append(head, shared...), tail...)
	}

	wholeStored, wholeMoved := chunkDeployment(t, 0, results)
	chunkStored, chunkMoved := chunkDeployment(t, chunkTestThreshold, results)
	storedSaved := 1 - float64(chunkStored)/float64(wholeStored)
	movedSaved := 1 - float64(chunkMoved)/float64(wholeMoved)
	t.Logf("stored %d -> %d bytes (%.1f%% saved), moved %d -> %d bytes (%.1f%% saved)",
		wholeStored, chunkStored, 100*storedSaved, wholeMoved, chunkMoved, 100*movedSaved)
	if storedSaved < 0.30 {
		t.Errorf("chunked dedup saved %.1f%% of stored bytes, want >= 30%%", 100*storedSaved)
	}
	if movedSaved < 0.30 {
		t.Errorf("chunked dedup saved %.1f%% of transferred bytes, want >= 30%%", 100*movedSaved)
	}
}

// TestFailedChunkedSendCostsOneRecompute covers the window a send after
// the ECALL opens: a chunked upload's chunks enter the producer's cache
// as store-resident inside the ECALL, then the send fails. The
// producer's next, overlapping upload trusts the cache, skips those
// chunks and installs a manifest naming chunks the store lacks. Its
// consumers still get correct bytes, for at most one loud recompute,
// which heals the entry for everyone after it.
func TestFailedChunkedSendCostsOneRecompute(t *testing.T) {
	p, st := newChunkStore(t)
	cfg := Config{ChunkThreshold: chunkTestThreshold}
	client := &countingClient{}
	producer := newChunkRuntimeWith(t, p, st, "producer", cfg, func(c StoreClient) StoreClient {
		client.StoreClient = c
		return client
	})
	consumers := []*Runtime{newChunkRuntime(t, p, st, "consumer1", chunkTestThreshold), newChunkRuntime(t, p, st, "consumer2", chunkTestThreshold)}
	id := chunkFuncID(t, producer)
	first := chunkResult(41, 160<<10)
	second := append(append([]byte(nil), first[:128<<10]...), chunkResult(42, 64<<10)...)
	run := func(rt *Runtime, input string, want []byte, outcome Outcome) {
		t.Helper()
		got, out, err := rt.Execute(id, []byte(input), func([]byte) ([]byte, error) { return append([]byte(nil), want...), nil })
		if err != nil || out != outcome || !bytes.Equal(got, want) {
			t.Fatalf("%s: outcome %v (want %v), err %v, result equal %v", input, out, outcome, err, bytes.Equal(got, want))
		}
	}

	client.rejectPuts = true
	run(producer, "first", first, OutcomeComputed)
	if s := producer.Stats(); s.PutErrors != 1 || s.ChunkedPuts != 0 {
		t.Fatalf("failed send booked PutErrors %d, ChunkedPuts %d; want 1, 0", s.PutErrors, s.ChunkedPuts)
	}
	client.rejectPuts = false
	run(producer, "second", second, OutcomeComputed)
	if s := producer.Stats(); s.ChunkedPuts != 1 || s.ChunksSkipped == 0 {
		t.Fatalf("ChunkedPuts %d, ChunksSkipped %d; the test wants the second upload to skip chunks the failed send left cached", s.ChunkedPuts, s.ChunksSkipped)
	}

	run(consumers[0], "second", second, OutcomeRecomputed)
	run(consumers[1], "second", second, OutcomeReused)
	run(producer, "second", second, OutcomeReused)
	var loud int64
	for _, c := range consumers {
		loud += c.Stats().VerifyFailures
	}
	if loud != 1 {
		t.Errorf("%d loud recomputes, want 1", loud)
	}
}

// TestChunkCacheKeepsSharedChunks pins the cache's admission: a set of
// chunks referenced twice survives a single pass of unique chunks
// larger than the whole budget, which a plain LRU would flush. At every
// step each tier holds no more than its budget, and the enclave charge
// equals the bytes the enclave tier holds plus its sketch's fixed
// charge: the host tier, which takes what the enclave tier displaces,
// is charged nothing. A chunk larger than the budget is refused.
func TestChunkCacheKeepsSharedChunks(t *testing.T) {
	const budget, size, shared = 64 << 10, 1 << 10, 16
	enc, err := enclave.NewPlatform(enclave.Config{}).Create("app", []byte("app code"))
	if err != nil {
		t.Fatal(err)
	}
	base := enc.HeapUsed()
	c := newChunkCache(enc, budget, budget)
	tag := func(i int) mle.Tag {
		var tg mle.Tag
		binary.LittleEndian.PutUint64(tg[:], uint64(i))
		return tg
	}
	check := func(step string, i int) {
		t.Helper()
		if c.bytes > budget || c.host.bytes > budget {
			t.Fatalf("%s %d: tiers hold %d and %d bytes, budget %d each", step, i, c.bytes, c.host.bytes, budget)
		}
		if charge := enc.HeapUsed() - base; charge != c.bytes+int64(len(c.sketch)) {
			t.Fatalf("%s %d: enclave charge %d, cache holds %d bytes and a %d-byte sketch", step, i, charge, c.bytes, len(c.sketch))
		}
	}

	for i := 0; i < shared; i++ {
		c.offer(tag(i), make([]byte, size), false)
		check("add shared", i)
	}
	for i := 0; i < shared; i++ {
		if _, ok := c.get(tag(i)); !ok {
			t.Fatalf("shared chunk %d missing before the scan", i)
		}
		check("get shared", i)
	}
	for i := shared; i < shared+2*budget/size; i++ {
		c.offer(tag(i), make([]byte, size), false)
		check("scan", i)
	}
	if c.host.bytes < budget-size-enclave.SealOverhead {
		t.Errorf("the host tier holds %d bytes after the scan; the test wants it full", c.host.bytes)
	}
	for i := 0; i < shared; i++ {
		if !c.holds(tag(i)) {
			t.Errorf("shared chunk %d evicted by a single pass of unique chunks", i)
		}
	}

	c.offer(tag(-1), make([]byte, budget+1), false)
	if c.holds(tag(-1)) || c.host.holds(tag(-1)) {
		t.Error("a chunk larger than the budget was cached")
	}
	check("oversized add", 0)
}

// hashTag is a chunk-cache tag derived like a real one, by SHA-256, so
// that every sketch row sees an independent hash.
func hashTag(i int) mle.Tag {
	return mle.Tag(sha256.Sum256(binary.LittleEndian.AppendUint64(nil, uint64(i))))
}

// TestChunkCacheAdmitsByFrequency pins the TinyLFU admission and the
// CLOCK hand rule: below budget every chunk is admitted; a stream of
// once-referenced chunks twice the budget never displaces a chunk
// referenced three times; a rejected candidate evicts nothing and
// leaves the hand on its victim, and is not copied if lent; a candidate
// referenced more often than the victim evicts exactly that victim, and
// a lent one is copied; and close frees the bytes and the sketch.
func TestChunkCacheAdmitsByFrequency(t *testing.T) {
	// Sized so that the whole test stays inside one sketch sample: no
	// halving ages the hot chunks' counts.
	const budget, size, hot = 256 << 10, 4 << 10, 8
	enc, err := enclave.NewPlatform(enclave.Config{}).Create("app", []byte("app code"))
	if err != nil {
		t.Fatal(err)
	}
	base := enc.HeapUsed()
	c := newChunkCache(enc, budget, 0)
	next := 0
	fill := func() mle.Tag { // a chunk referenced once, then offered
		next++
		tg := hashTag(next)
		c.get(tg)
		c.add(tg, make([]byte, size), false, nil)
		return tg
	}

	var hotTags []mle.Tag
	for i := 0; i < budget/size; i++ {
		tg := fill()
		if i < hot {
			hotTags = append(hotTags, tg)
		}
	}
	if c.bytes != budget || c.rejects.Load() != 0 {
		t.Fatalf("below budget: cache holds %d of %d bytes after %d rejects; want every chunk admitted", c.bytes, budget, c.rejects.Load())
	}
	for _, tg := range hotTags {
		c.get(tg)
		c.get(tg)
	}
	for i := 0; i < 2*budget/size; i++ {
		fill()
	}
	for i, tg := range hotTags {
		if !c.holds(tg) {
			t.Errorf("hot chunk %d displaced by chunks referenced once", i)
		}
	}
	if c.rejects.Load() == 0 {
		t.Error("no candidate was rejected; the test wants admission to have decided")
	}

	tags := func() map[mle.Tag]bool {
		m := make(map[mle.Tag]bool)
		for _, e := range c.ring {
			m[e.tag] = true
		}
		return m
	}
	before, hand := tags(), c.hand
	victim := c.ring[hand].tag
	if c.ring[hand].ref {
		t.Fatal("the hand rests on a referenced entry")
	}
	rejects := c.rejects.Load()
	cold := hashTag(-1) // never referenced: estimate 0
	c.add(cold, make([]byte, size), false, nil)
	if c.holds(cold) || c.rejects.Load() != rejects+1 {
		t.Fatalf("a never-referenced candidate was admitted (rejects %d -> %d)", rejects, c.rejects.Load())
	}
	if after := tags(); len(after) != len(before) || c.hand != hand || c.bytes != budget {
		t.Fatalf("rejected candidate: %d -> %d entries, hand %d -> %d, %d bytes; want nothing moved", len(before), len(after), hand, c.hand, c.bytes)
	}
	lent, displaced := make([]byte, size), make([]chunkEntry, 0, 4)
	if n := testing.AllocsPerRun(10, func() { c.add(cold, lent, true, displaced) }); n != 0 {
		t.Errorf("refusing a lent chunk made %.0f allocations; it is copied only once admitted", n)
	}

	warm := hashTag(-2)
	for c.estimate(warm) <= c.estimate(victim) {
		c.get(warm)
	}
	c.add(warm, lent, true, nil)
	if !c.holds(warm) || c.holds(victim) || c.bytes != budget {
		t.Fatalf("a candidate counted above the victim: admitted %v, victim kept %v, %d bytes", c.holds(warm), c.holds(victim), c.bytes)
	}
	if lent[0] = 1; c.ring[c.m[warm]].data[0] != 0 {
		t.Error("an admitted lent chunk aliases the lender's buffer")
	}

	c.close()
	if got := enc.HeapUsed(); got != base {
		t.Fatalf("HeapUsed after close = %d, want %d as before the cache", got, base)
	}
}

// TestChunkCacheConcurrent drives get, offer, fill, holds and lacking
// from several goroutines over a shared tag set that overflows both
// tiers (run it under -race): every chunk filled from either tier is
// its own, and afterwards no tag is in both tiers, each tier is within
// budget and the enclave charge matches the enclave tier.
func TestChunkCacheConcurrent(t *testing.T) {
	const budget, workers, ops, size = 32 << 10, 4, 2000, 1 << 10
	enc, err := enclave.NewPlatform(enclave.Config{}).Create("app", []byte("app code"))
	if err != nil {
		t.Fatal(err)
	}
	base := enc.HeapUsed()
	c := newChunkCache(enc, budget, budget)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			dst := make([]byte, size)
			for i := 0; i < ops; i++ {
				k := rng.Intn(96)
				tg := hashTag(k)
				switch rng.Intn(5) {
				case 0:
					if data, ok := c.get(tg); ok && len(data) != size {
						t.Errorf("cached chunk of %d bytes, want %d", len(data), size)
					}
				case 1:
					c.offer(tg, bytes.Repeat([]byte{byte(k)}, size), false)
				case 2:
					if c.fill(tg, dst) && !bytes.Equal(dst, bytes.Repeat([]byte{byte(k)}, size)) {
						t.Errorf("chunk %d filled with another's bytes", k)
					}
				case 3:
					c.lacking([]mle.Tag{tg, hashTag(k + 1)}, func(int) {})
				default:
					c.holds(tg)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	for tg := range c.m {
		if c.host.holds(tg) {
			t.Errorf("chunk %x... is in both tiers", tg[:4])
		}
	}
	if c.bytes > budget || c.host.bytes > budget || enc.HeapUsed()-base != c.bytes+int64(len(c.sketch)) {
		t.Fatalf("tiers hold %d and %d bytes (budget %d each); enclave charge %d", c.bytes, c.host.bytes, budget, enc.HeapUsed()-base)
	}
	if c.spillFailures.Load() != 0 {
		t.Errorf("%d host entries failed to unseal", c.spillFailures.Load())
	}
	c.close()
	if enc.HeapUsed() != base {
		t.Fatalf("HeapUsed after close = %d, want %d", enc.HeapUsed(), base)
	}
}

// BenchmarkChunkCacheFamilies replays a seeded read stream shaped like
// the overlap_chunked workload through a chunk cache of the default
// size, once with its enclave tier alone and once with the sealed host
// tier behind it: 64 families × 32 variants of 32 chunks of 8 KiB,
// each variant its family's chunks with 4 of them replaced, read in
// Zipf order (s = 1) by a consumer that fetches what neither tier
// holds and offers it to the enclave tier.
// It reports the MiB fetched and the fetch rounds (reads that missed
// any chunk) per stream of 20,000 reads, each without and with the
// host tier; it times nothing worth gating.
func BenchmarkChunkCacheFamilies(b *testing.B) {
	const families, variants, chunks, edits, size, reads = 64, 32, 32, 4, 8 << 10, 20000
	base := func(f, k int) mle.Tag { return hashTag(2 * (f*chunks + k)) }
	edit := func(f, v, k int) mle.Tag { return hashTag(2*((f*variants+v)*chunks+k) + 1) }
	rng := rand.New(rand.NewSource(1))
	results := make([][]mle.Tag, families*variants)
	for id := range results {
		f, v := id/variants, id%variants
		r := make([]mle.Tag, chunks)
		for k := range r {
			r[k] = base(f, k)
		}
		for e := 0; e < edits; e++ {
			k := rng.Intn(chunks)
			r[k] = edit(f, v, k)
		}
		results[id] = r
	}
	cum := make([]float64, len(results))
	for i := range cum {
		cum[i] = 1 / float64(i+1)
		if i > 0 {
			cum[i] += cum[i-1]
		}
	}
	perm := rng.Perm(len(results))
	stream := make([]int, reads)
	for i := range stream {
		stream[i] = perm[sort.SearchFloat64s(cum, rng.Float64()*cum[len(cum)-1])]
	}
	enc, err := enclave.NewPlatform(enclave.Config{}).Create("app", []byte("app code"))
	if err != nil {
		b.Fatal(err)
	}
	data, dst := make([]byte, size), make([]byte, size)
	var fetched, rounds [2]int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tiers, hostMax := range []int64{0, hostChunkCacheBytes} {
			c := newChunkCache(enc, defaultChunkCacheBytes, hostMax)
			fetched[tiers], rounds[tiers] = 0, 0
			for _, id := range stream {
				// As manifestReuse does: what neither tier held is fetched,
				// then offered to the enclave tier in order.
				var offers []mle.Tag
				for _, tg := range results[id] {
					if !c.fill(tg, dst) {
						offers = append(offers, tg)
					}
				}
				if len(offers) > 0 {
					rounds[tiers]++
				}
				fetched[tiers] += int64(len(offers)) * size
				for _, tg := range offers {
					c.offer(tg, data, false)
				}
			}
			c.close()
		}
	}
	b.ReportMetric(float64(fetched[0])/(1<<20), "MiB-fetched")
	b.ReportMetric(float64(rounds[0]), "rounds")
	b.ReportMetric(float64(fetched[1])/(1<<20), "MiB-fetched-tiered")
	b.ReportMetric(float64(rounds[1]), "rounds-tiered")
}

// putTagRecorder records the tag of every item PUT through it.
type putTagRecorder struct {
	StoreClient
	tags []mle.Tag
}

func (c *putTagRecorder) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	for _, it := range items {
		c.tags = append(c.tags, it.Tag)
	}
	return c.StoreClient.Put(tc, items)
}

// TestRepeatedChunksTravelOnce: a run of identical content splits into
// identical chunks at the forced cut, and each distinct chunk is sealed
// and uploaded once, and fetched, opened and verified once, however
// many slots of the result it fills.
func TestRepeatedChunksTravelOnce(t *testing.T) {
	p, st := newChunkStore(t)
	rec := &putTagRecorder{}
	producer := newChunkRuntimeWith(t, p, st, "producer", Config{ChunkThreshold: chunkTestThreshold}, func(c StoreClient) StoreClient {
		rec.StoreClient = c
		return rec
	})
	consumer := newChunkRuntime(t, p, st, "consumer", chunkTestThreshold)
	id := chunkFuncID(t, producer)
	want := append(make([]byte, 512<<10), chunkResult(9, 64<<10)...)
	distinct := make(map[[32]byte]bool)
	chunks := producer.chunker.Split(want)
	for _, ch := range chunks {
		distinct[chunk.Hash(ch)] = true
	}
	if len(distinct) >= len(chunks) {
		t.Fatalf("%d chunks, %d distinct; the test wants repeats", len(chunks), len(distinct))
	}

	for _, rt := range []*Runtime{producer, consumer} {
		got, _, err := rt.Execute(id, []byte("zeros"), func([]byte) ([]byte, error) { return bytes.Clone(want), nil })
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Execute: err %v, result equal %v", err, bytes.Equal(got, want))
		}
	}
	uploaded := make(map[mle.Tag]int)
	for _, tg := range rec.tags {
		uploaded[tg]++
	}
	if len(rec.tags) != len(distinct)+1 || len(uploaded) != len(rec.tags) {
		t.Errorf("producer PUT %d items (%d distinct tags); want each of %d distinct chunks once, plus the manifest", len(rec.tags), len(uploaded), len(distinct))
	}
	if d := st.Stats().PutDupes; d != 0 {
		t.Errorf("store saw %d duplicate PUTs, want 0", d)
	}
	if s := consumer.Stats(); s.ManifestReuses != 1 || s.ChunksFetched != int64(len(distinct)) {
		t.Errorf("consumer: %d manifest reuses, %d chunks fetched; want 1, %d", s.ManifestReuses, s.ChunksFetched, len(distinct))
	}
}

// TestCloseReleasesChunkCacheCharge: closing a runtime gives back the
// enclave charge of every chunk still cached, so a runtime closed on an
// enclave that lives on leaks no EPC, and a late add charges nothing.
func TestCloseReleasesChunkCacheCharge(t *testing.T) {
	p, st := newChunkStore(t)
	enc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatal(err)
	}
	before := enc.HeapUsed()
	rt, err := NewRuntime(Config{Enclave: enc, Client: NewLocalClient(st, enc.Measurement()),
		ChunkThreshold: chunkTestThreshold, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	id := chunkFuncID(t, rt)
	for _, seed := range []int64{1, 2, 1} {
		want := chunkResult(seed, 96<<10)
		if _, _, err := rt.Execute(id, []byte{byte(seed)}, func([]byte) ([]byte, error) { return want, nil }); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	if enc.HeapUsed() == before {
		t.Fatal("the chunk cache holds nothing; the test wants a charge to release")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := enc.HeapUsed(); got != before {
		t.Fatalf("HeapUsed after Close = %d, want %d as before NewRuntime", got, before)
	}
	rt.chunkCache.offer(mle.Tag{1}, make([]byte, 1<<10), false)
	if got := enc.HeapUsed(); got != before {
		t.Fatalf("an add after Close charged the enclave: HeapUsed %d, want %d", got, before)
	}
	if h := rt.chunkCache.host; h.bytes != 0 || h.holds(mle.Tag{1}) {
		t.Fatalf("the host tier holds %d bytes after Close", h.bytes)
	}
}
