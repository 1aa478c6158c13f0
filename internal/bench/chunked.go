package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// Chunked measures what content-defined chunking buys on near-duplicate
// workloads: documents whose results share a controlled fraction of
// their bytes are executed against a whole-result deployment and a
// chunk-threshold deployment, and the experiment reports bytes stored
// in the ResultStore, bytes moved over the client (PUT side for the
// producer, GET side for an independent consumer reassembling from
// manifests), and per-call latency for both.

// ChunkConfig tunes the chunked-dedup benchmark.
type ChunkConfig struct {
	// Docs is how many near-duplicate documents each overlap level
	// executes; default 12 (6 in quick runs).
	Docs int
	// ResultBytes is the per-document result size; default 256 KiB.
	ResultBytes int
	// Overlaps lists the shared-content ratios to sweep; default
	// 0, 0.5, 0.9.
	Overlaps []float64
	// ChunkThreshold is the chunked deployment's Config.ChunkThreshold;
	// default 32 KiB.
	ChunkThreshold int
}

// ChunkRow is one overlap level's measurements. Whole* columns come
// from the ChunkThreshold=0 deployment, Chunk* from the chunking one.
type ChunkRow struct {
	Overlap     float64 `json:"overlap"`
	Docs        int     `json:"docs"`
	ResultBytes int     `json:"result_bytes"`

	WholeStoredBytes int64 `json:"whole_stored_bytes"`
	ChunkStoredBytes int64 `json:"chunk_stored_bytes"`
	WholePutBytes    int64 `json:"whole_put_bytes"`
	ChunkPutBytes    int64 `json:"chunk_put_bytes"`
	WholeGetBytes    int64 `json:"whole_get_bytes"`
	ChunkGetBytes    int64 `json:"chunk_get_bytes"`

	WholePutMS float64 `json:"whole_put_ms"`
	ChunkPutMS float64 `json:"chunk_put_ms"`
	WholeGetMS float64 `json:"whole_get_ms"`
	ChunkGetMS float64 `json:"chunk_get_ms"`

	// StoredSavings / TransferSavings are the chunked deployment's
	// reduction vs whole-result (1 - chunk/whole); transfer sums the
	// PUT and GET sides.
	StoredSavings   float64 `json:"stored_savings"`
	TransferSavings float64 `json:"transfer_savings"`
}

// countingClient wraps a store client and counts the sealed payload
// bytes (plus 32 per probed or requested tag) that cross it — the
// simulated wire transfer volume of the deployment.
type countingClient struct {
	inner dedup.StoreClient
	bytes atomic.Int64
}

func sealedBytes(s mle.Sealed) int64 {
	return int64(len(s.Challenge) + len(s.WrappedKey) + len(s.Blob))
}

func (c *countingClient) Get(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	c.bytes.Add(int64(len(tags)) * int64(len(mle.Tag{})))
	results, err := c.inner.Get(tc, tags)
	for _, r := range results {
		if r.Found {
			c.bytes.Add(sealedBytes(r.Sealed))
		}
	}
	return results, err
}

func (c *countingClient) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	for _, it := range items {
		c.bytes.Add(int64(len(it.Tag)) + sealedBytes(it.Sealed))
	}
	return c.inner.Put(tc, items)
}

func (c *countingClient) Has(tc wire.TraceContext, tags []mle.Tag) ([]bool, error) {
	c.bytes.Add(int64(len(tags)) * int64(len(mle.Tag{})))
	return c.inner.Has(tc, tags)
}

func (c *countingClient) Ping() error  { return c.inner.Ping() }
func (c *countingClient) Close() error { return c.inner.Close() }

// chunkWorkload builds the deterministic near-duplicate corpus: every
// document's result is unique-head || shared-middle || unique-tail,
// with the shared middle covering overlap of the result.
func chunkWorkload(docs, resultBytes int, overlap float64, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	sharedLen := int(float64(resultBytes) * overlap)
	uniqueLen := resultBytes - sharedLen
	shared := make([]byte, sharedLen)
	rng.Read(shared)
	results := make([][]byte, docs)
	for i := range results {
		head := make([]byte, uniqueLen/2)
		tail := make([]byte, uniqueLen-len(head))
		rng.Read(head)
		rng.Read(tail)
		r := make([]byte, 0, resultBytes)
		r = append(r, head...)
		r = append(r, shared...)
		r = append(r, tail...)
		results[i] = r
	}
	return results
}

// chunkDeployment runs one producer+consumer pass and reports stored
// bytes, producer-side transfer, consumer-side transfer and per-call
// latencies.
func chunkDeployment(threshold int, results [][]byte) (stored, putBytes, getBytes int64, putMS, getMS float64, err error) {
	platform := enclave.NewPlatform(enclave.Config{})
	storeEnc, err := platform.Create("bench-store", []byte("bench store code"))
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	st, err := store.New(store.Config{Enclave: storeEnc, Telemetry: registry})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	defer st.Close()

	newRuntime := func(name string) (*dedup.Runtime, *countingClient, error) {
		appEnc, cerr := platform.Create(name, []byte("bench app code"))
		if cerr != nil {
			return nil, nil, cerr
		}
		cc := &countingClient{inner: dedup.NewLocalClient(st, appEnc.Measurement())}
		rt, rerr := dedup.NewRuntime(dedup.Config{
			Enclave:        appEnc,
			Client:         cc,
			ChunkThreshold: threshold,
			Logf:           func(string, ...any) {},
			Telemetry:      registry,
		})
		if rerr != nil {
			return nil, nil, rerr
		}
		rt.Registry().RegisterLibrary("chunkbench", "1.0", []byte("chunk bench code"))
		return rt, cc, nil
	}
	desc := dedup.FuncDesc{Library: "chunkbench", Version: "1.0", Signature: "bytes render(doc)"}

	producer, producerCC, err := newRuntime("bench-app")
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	defer producer.Close()
	id, err := producer.Resolve(desc)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	input := func(i int) []byte { return []byte(fmt.Sprintf("chunk-bench-doc-%04d", i)) }

	var putTotal time.Duration
	for i, want := range results {
		want := want
		start := time.Now()
		_, _, xerr := producer.Execute(id, input(i), func([]byte) ([]byte, error) {
			return append([]byte(nil), want...), nil
		})
		if xerr != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("producer execute %d: %w", i, xerr)
		}
		putTotal += time.Since(start)
	}
	stored = st.Stats().BlobBytes
	putBytes = producerCC.bytes.Load()
	putMS = ms(putTotal) / float64(len(results))

	consumer, consumerCC, err := newRuntime("bench-consumer")
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	defer consumer.Close()
	cid, err := consumer.Resolve(desc)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	var getTotal time.Duration
	for i := range results {
		start := time.Now()
		_, outcome, xerr := consumer.Execute(cid, input(i), func([]byte) ([]byte, error) {
			return nil, fmt.Errorf("consumer recomputed document %d", i)
		})
		if xerr != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("consumer execute %d: %w", i, xerr)
		}
		if outcome != dedup.OutcomeReused {
			return 0, 0, 0, 0, 0, fmt.Errorf("consumer outcome for %d = %v, want reused", i, outcome)
		}
		getTotal += time.Since(start)
	}
	getBytes = consumerCC.bytes.Load()
	getMS = ms(getTotal) / float64(len(results))
	return stored, putBytes, getBytes, putMS, getMS, nil
}

// Chunked runs the sweep. At the 50% overlap level the chunked
// deployment must cut both stored and transferred bytes by at least
// 30% vs whole-result dedup — the experiment fails otherwise.
func Chunked(cfg ChunkConfig) ([]ChunkRow, error) {
	if cfg.Docs <= 0 {
		cfg.Docs = 12
	}
	if cfg.ResultBytes <= 0 {
		cfg.ResultBytes = 256 << 10
	}
	if len(cfg.Overlaps) == 0 {
		cfg.Overlaps = []float64{0, 0.5, 0.9}
	}
	if cfg.ChunkThreshold <= 0 {
		cfg.ChunkThreshold = 32 << 10
	}

	rows := make([]ChunkRow, 0, len(cfg.Overlaps))
	for _, overlap := range cfg.Overlaps {
		results := chunkWorkload(cfg.Docs, cfg.ResultBytes, overlap, int64(1e9*overlap)+7)
		row := ChunkRow{Overlap: overlap, Docs: cfg.Docs, ResultBytes: cfg.ResultBytes}
		var err error
		row.WholeStoredBytes, row.WholePutBytes, row.WholeGetBytes, row.WholePutMS, row.WholeGetMS, err =
			chunkDeployment(0, results)
		if err != nil {
			return rows, fmt.Errorf("whole-result deployment at overlap %.0f%%: %w", 100*overlap, err)
		}
		row.ChunkStoredBytes, row.ChunkPutBytes, row.ChunkGetBytes, row.ChunkPutMS, row.ChunkGetMS, err =
			chunkDeployment(cfg.ChunkThreshold, results)
		if err != nil {
			return rows, fmt.Errorf("chunked deployment at overlap %.0f%%: %w", 100*overlap, err)
		}
		row.StoredSavings = 1 - float64(row.ChunkStoredBytes)/float64(row.WholeStoredBytes)
		wholeTransfer := row.WholePutBytes + row.WholeGetBytes
		chunkTransfer := row.ChunkPutBytes + row.ChunkGetBytes
		row.TransferSavings = 1 - float64(chunkTransfer)/float64(wholeTransfer)
		rows = append(rows, row)

		if overlap == 0.5 {
			if row.StoredSavings < 0.30 {
				return rows, fmt.Errorf("chunked dedup saved only %.1f%% stored bytes at 50%% overlap (want >= 30%%)",
					100*row.StoredSavings)
			}
			if row.TransferSavings < 0.30 {
				return rows, fmt.Errorf("chunked dedup saved only %.1f%% transferred bytes at 50%% overlap (want >= 30%%)",
					100*row.TransferSavings)
			}
		}
	}
	return rows, nil
}

// RenderChunked formats the sweep as a table.
func RenderChunked(rows []ChunkRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Chunked dedup: %d near-duplicate docs of %d KiB per overlap level, whole-result vs FastCDC chunking\n",
			rows[0].Docs, rows[0].ResultBytes>>10)
	}
	fmt.Fprintf(&b, "  %-8s %12s %12s %12s %12s %8s %8s %9s %9s\n",
		"overlap", "stored(W)", "stored(C)", "xfer(W)", "xfer(C)", "saved$", "savedX", "put C ms", "get C ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %6.0f%% %11dK %11dK %11dK %11dK %7.1f%% %7.1f%% %9.2f %9.2f\n",
			100*r.Overlap,
			r.WholeStoredBytes>>10, r.ChunkStoredBytes>>10,
			(r.WholePutBytes+r.WholeGetBytes)>>10, (r.ChunkPutBytes+r.ChunkGetBytes)>>10,
			100*r.StoredSavings, 100*r.TransferSavings,
			r.ChunkPutMS, r.ChunkGetMS)
	}
	b.WriteString("  saved$ = stored-byte reduction, savedX = transferred-byte (PUT+GET) reduction vs whole-result\n")
	return b.String()
}
