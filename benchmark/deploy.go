package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/cluster"
	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/telemetry"
)

// rung is one step of the deployment ladder. The same op stream runs on
// every rung; the difference between successive rungs' median latency
// is what the mechanism added at that step costs per call.
type rung int

const (
	rungCompute rung = iota // the marked computation alone, no SPEED
	rungNative              // runtime + in-process store, SGX costs not simulated
	rungSGX                 // the same with simulated SGX transition and paging costs
	rungRemote              // runtime → TCP → one memory-engine store server
	rungReal                // the workload's own deployment
)

var rungNames = [...]string{"compute", "native", "sgx", "remote", "real"}

// Log-engine budgets of miss_durable and cluster_mix: small enough that
// both working sets are several times larger than memtable plus cache.
const (
	logMemtableBytes = 2 * mib
	logCacheBytes    = 8 * mib
)

// prepopBatch is the ExecuteBatch size used to store the pool in
// set-up.
const prepopBatch = 64

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// expectPresent marks an expect entry as recorded.
const expectPresent = 1 << 63

// deployment is one running system under test plus the bookkeeping the
// benchmark needs to check its outputs.
type deployment struct {
	w    *workload
	st   *stream
	rung rung

	reg       *telemetry.Registry
	platform  *enclave.Platform
	app       *enclave.Enclave
	storeEncs []*enclave.Enclave
	stores    []*store.Store
	servers   []*store.Server
	served    sync.WaitGroup
	cl        *cluster.Client
	rt        *dedup.Runtime
	fn        mle.FuncID
	dirs      []string

	// expect[id] holds length and CRC-32C of id's result, recorded when
	// the benchmark's own compute function produced it; every result
	// the runtime returns is checked against it.
	expect []uint64
	tr     *tracer
	logs   atomic.Int64
}

func (d *deployment) logf(string, ...any) { d.logs.Add(1) }

// compute is the function handed to Execute: the stream's marked
// computation, plus recording what it returned and, in traced runs, a
// span.
func (d *deployment) compute(input []byte) ([]byte, error) {
	var t0 int64
	if d.tr != nil {
		t0 = d.tr.now()
	}
	out, err := d.st.compute(input)
	if err != nil {
		return nil, err
	}
	id := inputID(input)
	d.expect[id] = expectPresent | uint64(len(out))<<32 | uint64(crc32.Checksum(out, castagnoli))
	if d.tr != nil {
		d.tr.child(spanCompute, t0, d.tr.now(), id)
	}
	return out, nil
}

// matches reports whether res is what compute produced for id.
func (d *deployment) matches(id uint32, res []byte) bool {
	return d.expect[id] == expectPresent|uint64(len(res))<<32|uint64(crc32.Checksum(res, castagnoli))
}

// deploy builds the system for rung r of workload w under dataRoot.
func deploy(w *workload, st *stream, r rung, dataRoot string) (d *deployment, err error) {
	d = &deployment{w: w, st: st, rung: r, expect: make([]uint64, len(st.inputs))}
	if r == rungCompute {
		return d, nil
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	d.reg = telemetry.NewRegistry()
	// A fixed platform seed is the simulated analogue of fused hardware
	// keys: the store reopened after the crash derives the same sealing
	// key.
	d.platform = enclave.NewPlatform(enclave.Config{
		SimulateCosts: r != rungNative,
		PlatformSeed:  []byte("speed-benchmark/" + w.name),
	})
	if d.app, err = d.platform.Create("bench-app", []byte("benchmark app code")); err != nil {
		return d, err
	}

	nodes, logEngine, clustered := 1, false, false
	if r == rungReal {
		nodes, logEngine, clustered = w.nodes, w.logEngine, w.cluster
	}
	for i := 0; i < nodes; i++ {
		dir := ""
		if logEngine {
			if dir, err = os.MkdirTemp(dataRoot, fmt.Sprintf("node%d-", i)); err != nil {
				return d, err
			}
			d.dirs = append(d.dirs, dir)
		}
		if err = d.openStore(i, dir); err != nil {
			return d, err
		}
	}

	// The client goes straight into the runtime's configuration, so the
	// benchmark names none of the repo's store-client interfaces.
	cfg := dedup.Config{
		Enclave:        d.app,
		ChunkThreshold: w.chunkThreshold,
		Telemetry:      d.reg,
		Logf:           d.logf,
	}
	var closeClient func() error
	if r < rungRemote {
		cfg.Client = dedup.NewLocalClient(d.stores[0], d.app.Measurement())
	} else {
		addrs := make([]string, nodes)
		for i, s := range d.stores {
			ln, lerr := net.Listen("tcp", "127.0.0.1:0")
			if lerr != nil {
				return d, lerr
			}
			srv := store.NewServer(s, ln, store.WithLogf(d.logf), store.WithTelemetry(d.reg))
			d.servers = append(d.servers, srv)
			d.served.Add(1)
			go func() {
				defer d.served.Done()
				_ = srv.Serve() // returns net.ErrClosed after Close
			}()
			addrs[i] = ln.Addr().String()
		}
		storeMeas := d.storeEncs[0].Measurement()
		if clustered {
			if d.cl, err = cluster.New(cluster.Config{
				Nodes:            addrs,
				Replicas:         2,
				App:              d.app,
				StoreMeasurement: storeMeas,
				Remote:           dedup.RemoteConfig{Telemetry: d.reg},
				Telemetry:        d.reg,
				Logf:             d.logf,
			}); err != nil {
				return d, err
			}
			cfg.Client, closeClient = d.cl, d.cl.Close
		} else {
			rc, derr := dedup.DialConfig(addrs[0], d.app, storeMeas, dedup.RemoteConfig{Telemetry: d.reg})
			if derr != nil {
				return d, derr
			}
			cfg.Client, closeClient = rc, rc.Close
		}
	}
	if d.rt, err = dedup.NewRuntime(cfg); err != nil {
		if closeClient != nil {
			_ = closeClient()
		}
		return d, err
	}
	d.rt.Registry().RegisterLibrary("benchmark", "1", []byte("benchmark marked computation"))
	d.fn, err = d.rt.Resolve(dedup.FuncDesc{Library: "benchmark", Version: "1", Signature: w.name + "(input)"})
	return d, err
}

// openStore creates store i; dir is its log-engine directory or "" for
// the memory engine. Reopening an existing index replaces the crashed
// store.
func (d *deployment) openStore(i int, dir string) error {
	if i == len(d.storeEncs) {
		// Every member runs the same store code: one measurement,
		// distinct enclave names.
		enc, err := d.platform.Create(fmt.Sprintf("bench-store-%d", i), []byte("benchmark store code"))
		if err != nil {
			return err
		}
		d.storeEncs = append(d.storeEncs, enc)
		d.stores = append(d.stores, nil)
	}
	cfg := store.Config{Enclave: d.storeEncs[i], Telemetry: d.reg}
	if dir != "" {
		cfg.Engine = store.EngineLog
		cfg.DataDir = dir
		cfg.Fsync = d.w.fsync
		cfg.MemtableBytes = logMemtableBytes
		cfg.CacheBytes = logCacheBytes
		cfg.CompactInterval = d.w.compactInterval
	}
	s, err := store.New(cfg)
	if err != nil {
		return err
	}
	d.stores[i] = s
	return nil
}

// close tears the deployment down: runtime and clients first, then the
// servers (waiting for every handler and accept loop), then stores,
// enclaves and data directories. It is safe on a partly built
// deployment.
func (d *deployment) close() {
	if d.rt != nil {
		_ = d.rt.Close() // closes the store client too
	}
	for _, srv := range d.servers {
		_ = srv.Close()
	}
	d.served.Wait()
	for _, s := range d.stores {
		if s != nil {
			s.Close()
		}
	}
	for _, e := range d.storeEncs {
		e.Destroy()
	}
	if d.app != nil {
		d.app.Destroy()
	}
	for _, dir := range d.dirs {
		_ = os.RemoveAll(dir)
	}
}

// outcomeOK reports whether out is what the stream predicts for a call
// whose input was (hit) or was not already stored. Coalescing can only
// happen where the same input may be in flight twice: inside a batch or
// between two dispatchers.
func (d *deployment) outcomeOK(out dedup.Outcome, hit bool, batched bool) bool {
	switch out {
	case dedup.OutcomeReused:
		return hit
	case dedup.OutcomeComputed:
		return !hit
	case dedup.OutcomeCoalesced:
		return hit && (batched || d.w.dispatchers > 1)
	}
	return false
}

// do issues one request and returns how many of its calls failed:
// error, wrong bytes or wrong outcome.
func (d *deployment) do(seg *segment, rq request) (failed int) {
	ids := seg.ids[rq.first : rq.first+rq.n]
	hits := seg.hit[rq.first : rq.first+rq.n]
	if d.rung == rungCompute {
		for _, id := range ids {
			if _, err := d.compute(d.st.inputs[id]); err != nil {
				failed++
			}
		}
		return failed
	}
	if rq.n == 1 {
		res, out, err := d.rt.Execute(d.fn, d.st.inputs[ids[0]], d.compute)
		if err != nil || !d.matches(ids[0], res) || !d.outcomeOK(out, hits[0], false) {
			return 1
		}
		return 0
	}
	inputs := make([][]byte, len(ids))
	for i, id := range ids {
		inputs[i] = d.st.inputs[id]
	}
	results, err := d.rt.ExecuteBatch(d.fn, inputs, d.compute)
	if err != nil || len(results) != len(ids) {
		return len(ids)
	}
	for i, r := range results {
		if r.Err != nil || !d.matches(ids[i], r.Result) || !d.outcomeOK(r.Outcome, hits[i], true) {
			failed++
		}
	}
	return failed
}

// prepare stores the pool and runs the warm-up: everything between a
// built deployment and the measured window. On the log engine it ends
// with a checkpoint and a compaction so the window starts from settled
// segments, not from whatever the pool's flushes left behind.
func (d *deployment) prepare() error {
	if d.rung == rungCompute {
		return nil
	}
	pre := segment{}
	for i := 0; i < len(d.st.prepop); i += prepopBatch {
		pre.add(0, false, d.st.prepop[i:min(i+prepopBatch, len(d.st.prepop))]...)
	}
	for _, seg := range []*segment{&pre, &d.st.warm} {
		for _, rq := range seg.reqs {
			if d.do(seg, rq) != 0 {
				return fmt.Errorf("%s: set-up call failed (ids %v)", d.w.name, seg.ids[rq.first:rq.first+rq.n])
			}
		}
	}
	if len(d.st.prepop) > 0 {
		for _, s := range d.stores {
			if err := s.Checkpoint(); err != nil {
				return err
			}
			if err := s.Compact(); err != nil {
				return err
			}
		}
	}
	return nil
}

// setUp is deploy + prepare, timed: the run's setup_s sample.
func setUp(w *workload, st *stream, r rung, dataRoot string) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := deploy(w, st, r, dataRoot)
	if err == nil {
		if err = d.prepare(); err != nil {
			d.close()
		}
	}
	return d, time.Since(start), err
}

// counters is a point-in-time reading of every count the benchmark
// reports, taken from public snapshots and from the telemetry registry
// by series name. Metrics are deltas of two readings.
type counters struct {
	rt     dedup.Stats
	enc    enclave.Metrics // app enclave plus every store enclave
	store  store.Stats     // summed over the stores
	series map[string]float64
	found  map[string]bool

	failovers, readRepairs int64
	// diskWritten is /proc/self/io write_bytes; diskOK is false where
	// that file does not exist.
	diskWritten int64
	diskOK      bool
}

// read takes a reading. Server-side wire-byte counters are folded in by
// the connection's writer after each reply, so read waits until they
// stop moving (the deployment is idle whenever read is called).
func (d *deployment) read() counters {
	var c counters
	if d.rung == rungCompute {
		return c
	}
	c.rt = d.rt.Stats()
	for _, e := range append([]*enclave.Enclave{d.app}, d.storeEncs...) {
		m := e.Metrics()
		c.enc.ECalls += m.ECalls
		c.enc.OCalls += m.OCalls
		c.enc.AllocBytes += m.AllocBytes
		c.enc.PageFaults += m.PageFaults
	}
	for _, s := range d.stores {
		st := s.Stats()
		c.store.Gets += st.Gets
		c.store.Hits += st.Hits
		c.store.Puts += st.Puts
		c.store.PutDupes += st.PutDupes
		c.store.Evictions += st.Evictions
		c.store.Entries += st.Entries
		c.store.BlobBytes += st.BlobBytes
	}
	if d.cl != nil {
		c.failovers, c.readRepairs = d.cl.Failovers(), d.cl.ReadRepairs()
	}
	c.diskWritten, c.diskOK = diskWritten()
	c.readSeries(d.reg)
	for i := 0; i < 50; i++ {
		before := c.series[seriesWireIn] + c.series[seriesWireOut]
		time.Sleep(2 * time.Millisecond)
		c.readSeries(d.reg)
		if c.series[seriesWireIn]+c.series[seriesWireOut] == before {
			break
		}
	}
	return c
}

// diskWritten reads the bytes this process has caused to be written to
// storage, from /proc/self/io; ok is false where the file is absent.
func diskWritten() (n int64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, found := bytes.CutPrefix(line, []byte("write_bytes: ")); found {
			v, err := strconv.ParseInt(string(rest), 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// Telemetry series the benchmark reads, by family name. A series that
// a later change renames or drops reads as missing, never as a failure.
const (
	seriesWireIn       = "speed_server_wire_bytes_in_total"
	seriesWireOut      = "speed_server_wire_bytes_out_total"
	seriesAuthFailures = "speed_wire_auth_failures_total"
	seriesServerReqs   = "speed_server_request_seconds"
	seriesRouted       = "speed_cluster_routed_total"
	seriesWALRecords   = "speed_store_engine_wal_records_total"
	seriesFlushes      = "speed_store_engine_flushes_total"
	seriesCompactions  = "speed_store_engine_compactions_total"
	seriesSegments     = "speed_store_engine_segments"
	seriesCacheHits    = "speed_store_engine_cache_hits_total"
	seriesCacheMisses  = "speed_store_engine_cache_misses_total"
)

// readSeries sums every counter and gauge of a family over its label
// sets; a histogram family contributes its observation count.
func (c *counters) readSeries(reg *telemetry.Registry) {
	c.series, c.found = map[string]float64{}, map[string]bool{}
	family := func(full string) string {
		if i := strings.IndexByte(full, '{'); i >= 0 {
			return full[:i]
		}
		return full
	}
	snap := reg.Snapshot()
	for _, m := range snap.Counters {
		c.series[family(m.Name)] += float64(m.Value)
		c.found[family(m.Name)] = true
	}
	for _, m := range snap.Gauges {
		c.series[family(m.Name)] += m.Value
		c.found[family(m.Name)] = true
	}
	for _, m := range snap.Histograms {
		c.series[family(m.Name)] += float64(m.Count)
		c.found[family(m.Name)] = true
	}
}

// storedBytes is the numerator of stored_bytes_per_result_byte: sealed
// bytes the stores hold. On the log engine that is what is on disk
// after a checkpoint (WAL plus segments), measured as file sizes so the
// benchmark needs no engine accessor.
func (d *deployment) storedBytes() (int64, error) {
	if len(d.dirs) == 0 {
		var total int64
		for _, s := range d.stores {
			total += s.Stats().BlobBytes
		}
		return total, nil
	}
	var total int64
	for i, s := range d.stores {
		if err := s.Checkpoint(); err != nil {
			return 0, err
		}
		err := filepath.WalkDir(d.dirs[i], func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				// Compaction may delete a merged segment mid-walk.
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// crashAndRecover is the tail of miss_durable: abandon the store as a
// kill -9 would, reopen it from disk, and read back every stride-th
// result acknowledged during the window, straight from the store and
// checked byte for byte against a fresh computation. It returns the
// reopen time and how many read-backs were attempted and failed.
func (d *deployment) crashAndRecover(stride int) (recover time.Duration, attempted, failed int, err error) {
	_ = d.rt.Close()
	d.rt = nil
	for _, srv := range d.servers {
		_ = srv.Close()
	}
	d.served.Wait()
	d.servers = nil
	d.stores[0].Crash()
	start := time.Now()
	if err = d.openStore(0, d.dirs[0]); err != nil {
		return 0, 0, 0, err
	}
	recover = time.Since(start)
	rce := &mle.RCE{}
	owner := d.app.Measurement()
	for i := 0; i < len(d.st.main.ids); i += stride {
		input := d.st.inputs[d.st.main.ids[i]]
		attempted++
		sealed, found, gerr := d.stores[0].GetAs(owner, mle.ComputeTag(d.fn, input))
		if gerr != nil || !found {
			failed++
			continue
		}
		got, derr := rce.Decrypt(d.fn, input, sealed)
		want, _ := d.st.compute(input)
		if derr != nil || string(got) != string(want) {
			failed++
		}
	}
	return recover, attempted, failed, nil
}
