package dedup

import (
	"bytes"
	"fmt"
	"math/rand"
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
func newChunkStore(t *testing.T) (*enclave.Platform, *store.Store) {
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
func newChunkRuntime(t *testing.T, p *enclave.Platform, st *store.Store, name string, threshold int) *Runtime {
	t.Helper()
	appEnc, err := p.Create(name, []byte("app code"))
	if err != nil {
		t.Fatalf("create %s enclave: %v", name, err)
	}
	rt, err := NewRuntime(Config{
		Enclave:        appEnc,
		Client:         NewLocalClient(st, appEnc.Measurement()),
		ChunkThreshold: threshold,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("NewRuntime(%s): %v", name, err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	return rt
}

func chunkFuncID(t *testing.T, rt *Runtime) mle.FuncID {
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
// upload skips them (probed via HAS_BATCH against the shared store)
// and the store keeps one sealed copy of the overlap.
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
	before := st.Stats().BlobBytes
	if _, _, err := b.Execute(id, []byte("doc2"), func([]byte) ([]byte, error) {
		return append([]byte(nil), res2...), nil
	}); err != nil {
		t.Fatalf("B Execute: %v", err)
	}
	added := st.Stats().BlobBytes - before

	if s := b.Stats(); s.ChunksSkipped == 0 {
		t.Fatalf("B skipped no chunk uploads despite %dKiB overlap", len(common)>>10)
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

// TestTamperedChunkRecoversLoudly: corrupting one sealed chunk in the
// store must fail reassembly (digest/AEAD verification), force a loud
// recompute-and-replace, and heal the store for later readers.
func TestTamperedChunkRecoversLoudly(t *testing.T) {
	p, st := newChunkStore(t)
	a := newChunkRuntime(t, p, st, "appA", chunkTestThreshold)
	id := chunkFuncID(t, a)

	input := []byte("tamper target")
	want := chunkResult(5, 150<<10)
	if _, _, err := a.Execute(id, input, func([]byte) ([]byte, error) {
		return append([]byte(nil), want...), nil
	}); err != nil {
		t.Fatalf("A Execute: %v", err)
	}

	// Recompute the chunk tags the same way the runtime does and
	// overwrite one chunk's sealed entry with garbage.
	ck, err := chunk.NewChunker(chunk.Config{})
	if err != nil {
		t.Fatalf("NewChunker: %v", err)
	}
	chunks := ck.Split(want)
	if len(chunks) < 2 {
		t.Fatalf("result split into %d chunks; test needs several", len(chunks))
	}
	cid := chunk.ContentFuncID(id)
	victim := chunk.Tag(cid, chunk.Hash(chunks[len(chunks)/2]))
	if err := putOne(NewLocalClient(st, a.Enclave().Measurement()), victim, mle.Sealed{
		Challenge:  []byte("rrrrrrrrrrrrrrrr"),
		WrappedKey: []byte("kkkkkkkkkkkkkkkk"),
		Blob:       []byte("garbage ciphertext"),
	}, true); err != nil {
		t.Fatalf("tamper with a replacing PUT: %v", err)
	}

	// A fresh runtime (empty chunk cache) must detect the tamper,
	// recompute, and replace the damaged entries.
	b := newChunkRuntime(t, p, st, "appB", chunkTestThreshold)
	bCalls := 0
	got, outcome, err := b.Execute(id, input, func([]byte) ([]byte, error) {
		bCalls++
		return append([]byte(nil), want...), nil
	})
	if err != nil {
		t.Fatalf("B Execute: %v", err)
	}
	if outcome != OutcomeRecomputed || bCalls != 1 || !bytes.Equal(got, want) {
		t.Fatalf("B: outcome %v, calls %d", outcome, bCalls)
	}
	if s := b.Stats(); s.VerifyFailures != 1 {
		t.Fatalf("B VerifyFailures = %d, want 1", s.VerifyFailures)
	}

	// The replace healed the chunk: a third fresh runtime reuses.
	c := newChunkRuntime(t, p, st, "appC", chunkTestThreshold)
	got, outcome, err = c.Execute(id, input, func([]byte) ([]byte, error) {
		t.Fatal("C recomputed after the store was healed")
		return nil, nil
	})
	if err != nil || outcome != OutcomeReused || !bytes.Equal(got, want) {
		t.Fatalf("C: outcome %v err %v", outcome, err)
	}
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
// application ECALL, three OCALLs (GET, HAS, the PUTs) and four store
// ECALLs (GET, HAS, chunk PUT, manifest PUT); a hit that fetches chunks
// its cache lacks is one ECALL, two OCALLs (manifest GET, chunk GET)
// and two store ECALLs.
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
	// first 100 KiB with the first, so its producer uploads only some of
	// its chunks and the consumer's cache holds only some of them.
	small := chunkResult(31, 100<<10)
	large := append(append([]byte(nil), small...), chunkResult(32, 700<<10)...)
	type cost struct{ appECalls, appOCalls, storeECalls int64 }
	for _, c := range []struct {
		name    string
		rt      *Runtime
		input   string
		result  []byte
		outcome Outcome
		want    cost
	}{
		{"miss uploading every chunk", producer, "small", small, OutcomeComputed, cost{1, 3, 4}},
		{"miss uploading some chunks", editor, "large", large, OutcomeComputed, cost{1, 3, 4}},
		{"hit fetching every chunk", consumer, "small", small, OutcomeReused, cost{1, 2, 2}},
		{"hit fetching some chunks", consumer, "large", large, OutcomeReused, cost{1, 2, 2}},
	} {
		app, st := c.rt.cfg.Enclave.Metrics(), env.storeEnc.Metrics()
		stats := c.rt.Stats()
		got, outcome, err := c.rt.Execute(id, []byte(c.input), func([]byte) ([]byte, error) {
			return append([]byte(nil), c.result...), nil
		})
		if err != nil || outcome != c.outcome || !bytes.Equal(got, c.result) {
			t.Fatalf("%s: outcome %v (want %v), err %v, result equal %v", c.name, outcome, c.outcome, err, bytes.Equal(got, c.result))
		}
		app2, st2 := c.rt.cfg.Enclave.Metrics(), env.storeEnc.Metrics()
		if spent := (cost{app2.ECalls - app.ECalls, app2.OCalls - app.OCalls, st2.ECalls - st.ECalls}); spent != c.want {
			t.Errorf("%s cost %+v, want %+v", c.name, spent, c.want)
		}
		after := c.rt.Stats()
		t.Logf("%s: %d chunks skipped, %d fetched, %d from the chunk cache", c.name,
			after.ChunksSkipped-stats.ChunksSkipped, after.ChunksFetched-stats.ChunksFetched, after.ChunkCacheHits-stats.ChunkCacheHits)
	}
	if s := editor.Stats(); s.ChunksSkipped == 0 {
		t.Error("the editor uploaded every chunk; the test wants a partial upload")
	}
	if s := consumer.Stats(); s.ChunkCacheHits == 0 || s.ChunksFetched < 10 {
		t.Errorf("the consumer fetched %d chunks with %d cache hits; the test wants a partial, many-chunk fetch", s.ChunksFetched, s.ChunkCacheHits)
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

func (c *byteCounter) Has(tc wire.TraceContext, tags []mle.Tag) ([]bool, error) {
	c.n.Add(int64(len(tags) * len(mle.Tag{})))
	return c.StoreClient.Has(tc, tags)
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
