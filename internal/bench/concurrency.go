package bench

import (
	"fmt"
	"net"
	"sync"
	"time"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// ConcurrencyRow is one cell of the concurrency sweep: aggregate GET
// throughput for a number of concurrent workers sharing ONE multiplexed
// connection, each issuing round trips of a given batch size against a
// fully populated store (pure hit workload).
type ConcurrencyRow struct {
	// Workers is the number of concurrent callers on the one connection.
	Workers int `json:"workers"`
	// Batch is the number of tags per round trip (1 = plain GET).
	Batch int `json:"batch"`
	// Tags is the total number of tags fetched across all workers.
	Tags int `json:"tags"`
	// TotalMS is the wall-clock time for the whole cell.
	TotalMS float64 `json:"total_ms"`
	// TagsPerSec is the aggregate throughput.
	TagsPerSec float64 `json:"tags_per_sec"`
	// RTTMicros is the mean per-round-trip latency (wall time × workers
	// / round trips), comparable across batch sizes.
	RTTMicros float64 `json:"rtt_micros"`
}

// Default sweep axes: worker counts and batch sizes.
var (
	DefaultConcurrencyWorkers = []int{1, 2, 4, 8}
	DefaultConcurrencyBatches = []int{1, 8, 32}
)

// DefaultConcurrencyNetDelay is the simulated store-link delay added to
// every response (see Concurrency).
const DefaultConcurrencyNetDelay = 200 * time.Microsecond

// delayListener wraps accepted connections in a response delay,
// simulating the network round trip of the paper's dedicated-server
// ResultStore deployment on a loopback socket. The delay shifts each
// write's delivery; it does not serialise concurrent in-flight data, so
// pipelined responses overlap in the simulated network exactly as they
// would on a real link.
type delayListener struct {
	net.Listener
	delay time.Duration
}

func (l delayListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newDelayConn(c, l.delay), nil
}

type delayedChunk struct {
	due  time.Time
	data []byte
}

type delayConn struct {
	net.Conn
	mu     sync.Mutex
	closed bool
	ch     chan delayedChunk
}

func newDelayConn(c net.Conn, d time.Duration) *delayConn {
	dc := &delayConn{Conn: c, ch: make(chan delayedChunk, 4096)}
	go dc.pump(d)
	return dc
}

func (c *delayConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	c.ch <- delayedChunk{due: time.Now(), data: append([]byte(nil), p...)}
	return len(p), nil
}

// pump delivers queued writes to the real socket d after they were
// written, in order.
func (c *delayConn) pump(d time.Duration) {
	for chunk := range c.ch {
		if wait := time.Until(chunk.due.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := c.Conn.Write(chunk.data); err != nil {
			for range c.ch { // drain so writers never block
			}
			return
		}
	}
}

func (c *delayConn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// Concurrency measures how the multiplexed wire protocol scales GET
// throughput with concurrent callers and batched round trips. One
// store server runs on loopback TCP and ONE RemoteClient connection is
// shared by all workers, so any scaling comes from pipelining round
// trips on the single secure channel (protocol v2), not from extra
// connections. The store is pre-populated and every GET hits.
//
// Simulated SGX transition costs are disabled: they are implemented as
// spin waits, which on a small CI machine serialise the very
// overlapping this experiment measures. The paper's with-SGX store
// costs are covered by Fig. 6.
//
// netDelay is the simulated one-way store-link delay applied to every
// response (0 uses DefaultConcurrencyNetDelay, negative disables). On a
// raw loopback socket the round trip is almost pure CPU, so a serial
// caller already saturates the machine and pipelining has nothing to
// hide; the delay recreates the latency-bound regime of a store on a
// separate host, which is the deployment the mux exists for.
func Concurrency(workersList, batchList []int, tagsPerWorker, blobBytes int, netDelay time.Duration) ([]ConcurrencyRow, error) {
	if len(workersList) == 0 {
		workersList = DefaultConcurrencyWorkers
	}
	if len(batchList) == 0 {
		batchList = DefaultConcurrencyBatches
	}
	if tagsPerWorker <= 0 {
		tagsPerWorker = 2048
	}
	if blobBytes <= 0 {
		blobBytes = 1 << 10
	}
	if netDelay == 0 {
		netDelay = DefaultConcurrencyNetDelay
	}

	platform := enclave.NewPlatform(enclave.Config{SimulateCosts: false})
	appEnc, err := platform.Create("bench-app", []byte("bench app code"))
	if err != nil {
		return nil, err
	}
	storeEnc, err := platform.Create("bench-store", []byte("bench store code"))
	if err != nil {
		return nil, err
	}
	st, err := store.New(store.Config{Enclave: storeEnc, Shards: 16, Telemetry: registry})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if netDelay > 0 {
		ln = delayListener{Listener: ln, delay: netDelay}
	}
	srv := store.NewServer(st, ln,
		store.WithLogf(func(string, ...any) {}),
		store.WithMaxInflight(64),
		store.WithTelemetry(registry))
	go func() { _ = srv.Serve() }()
	defer srv.Close()

	client, err := dedup.DialConfig(ln.Addr().String(), appEnc, storeEnc.Measurement(),
		dedup.RemoteConfig{Telemetry: registry})
	if err != nil {
		return nil, err
	}
	defer client.Close()

	// Populate enough distinct tags that workers spread over the store's
	// shards, then warm every entry once.
	maxBatch := 1
	for _, b := range batchList {
		if b > maxBatch {
			maxBatch = b
		}
	}
	population := 8 * maxBatch
	if population < 256 {
		population = 256
	}
	mkTag := func(i int) mle.Tag {
		var t mle.Tag
		t[0], t[1], t[2] = byte(i), byte(i>>8), 0xC0
		return t
	}
	blob := randBytes(blobBytes)
	items := make([]wire.PutItem, population)
	for i := range items {
		items[i] = wire.PutItem{
			Tag: mkTag(i),
			Sealed: mle.Sealed{
				Challenge:  randBytes(mle.ChallengeSize),
				WrappedKey: randBytes(mle.KeySize),
				Blob:       blob,
			},
		}
	}
	prs, err := client.Put(wire.TraceContext{}, items)
	if err != nil {
		return nil, fmt.Errorf("bench: populate: %w", err)
	}
	for i, pr := range prs {
		if !pr.OK {
			return nil, fmt.Errorf("bench: populate item %d rejected: %s", i, pr.Err)
		}
	}
	if _, err := client.Get(wire.TraceContext{}, tagsOf(mkTag, 0, population)); err != nil {
		return nil, fmt.Errorf("bench: warmup: %w", err)
	}

	rows := make([]ConcurrencyRow, 0, len(workersList)*len(batchList))
	for _, batch := range batchList {
		for _, workers := range workersList {
			rounds := tagsPerWorker / batch
			if rounds < 1 {
				rounds = 1
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			start := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs <- runWorker(client, mkTag, population, w, rounds, batch)
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(errs)
			for err := range errs {
				if err != nil {
					return nil, err
				}
			}
			totalRounds := workers * rounds
			totalTags := totalRounds * batch
			rows = append(rows, ConcurrencyRow{
				Workers:    workers,
				Batch:      batch,
				Tags:       totalTags,
				TotalMS:    ms(elapsed),
				TagsPerSec: float64(totalTags) / elapsed.Seconds(),
				RTTMicros:  elapsed.Seconds() * 1e6 * float64(workers) / float64(totalRounds),
			})
		}
	}
	if r := client.Reconnects(); r != 0 {
		return nil, fmt.Errorf("bench: connection was re-dialed %d times mid-sweep", r)
	}
	return rows, nil
}

// tagsOf builds the tag slice [start, start+n) under mk, wrapping at
// population.
func tagsOf(mk func(int) mle.Tag, start, n int) []mle.Tag {
	tags := make([]mle.Tag, n)
	for i := range tags {
		tags[i] = mk(start + i)
	}
	return tags
}

// runWorker issues rounds GET round trips of the given batch size,
// walking the populated tag space from a per-worker offset.
func runWorker(client *dedup.RemoteClient, mk func(int) mle.Tag, population, worker, rounds, batch int) error {
	offset := worker * 31
	tags := make([]mle.Tag, batch)
	for r := 0; r < rounds; r++ {
		for i := range tags {
			tags[i] = mk((offset + r*batch + i) % population)
		}
		res, err := client.Get(wire.TraceContext{}, tags)
		if err != nil {
			return err
		}
		for _, gr := range res {
			if !gr.Found {
				return fmt.Errorf("bench: populated tag missing")
			}
		}
	}
	return nil
}

// RenderConcurrency formats the sweep and the two headline comparisons:
// concurrent-caller speedup over the serial baseline and the cost of a
// batched GET relative to repeated single GETs.
func RenderConcurrency(rows []ConcurrencyRow) string {
	s := "Concurrency: aggregate GET throughput, one mux connection\n"
	s += fmt.Sprintf("(simulated store-link delay %v per response, no SGX spin-wait costs)\n",
		DefaultConcurrencyNetDelay)
	s += fmt.Sprintf("%-8s %-6s %10s %12s %14s %10s\n",
		"Workers", "Batch", "Tags", "Total(ms)", "Tags/sec", "Speedup")
	var base, eight, batch32 *ConcurrencyRow
	for i := range rows {
		r := &rows[i]
		if r.Workers == 1 && r.Batch == 1 {
			base = r
		}
		if r.Workers == 8 && r.Batch == 1 {
			eight = r
		}
		if r.Workers == 1 && r.Batch == 32 {
			batch32 = r
		}
	}
	for _, r := range rows {
		speedup := "-"
		if base != nil && base.TagsPerSec > 0 {
			speedup = fmt.Sprintf("%.2fx", r.TagsPerSec/base.TagsPerSec)
		}
		s += fmt.Sprintf("%-8d %-6d %10d %12.2f %14.0f %10s\n",
			r.Workers, r.Batch, r.Tags, r.TotalMS, r.TagsPerSec, speedup)
	}
	if base != nil && eight != nil && base.TagsPerSec > 0 {
		s += fmt.Sprintf("8 concurrent clients, one connection: %.2fx serial throughput (target >= 2x)\n",
			eight.TagsPerSec/base.TagsPerSec)
	}
	if base != nil && batch32 != nil && base.RTTMicros > 0 {
		s += fmt.Sprintf("batched GET of 32 tags: %.0fus per round trip = %.2fx one GET round trip (budget < 8x of %.0fus)\n",
			batch32.RTTMicros, batch32.RTTMicros/base.RTTMicros, base.RTTMicros)
	}
	return s
}
