// Command resultstore runs a standalone encrypted ResultStore server
// speaking SPEED's attested wire protocol over TCP, for deployments
// where applications on other machines share one store (the "master
// ResultStore on a dedicated server" deployment of Section IV-B).
//
// Usage:
//
//	resultstore -listen 127.0.0.1:7800 \
//	            [-data-dir /var/lib/speed/store -machine-seed SEED] \
//	            [-max-entries 100000] [-quota-bytes 1073741824] \
//	            [-metrics 127.0.0.1:9090] [-stats-interval 30s]
//
// With -data-dir the dictionary is persistent (sealed WAL + segments)
// and survives crashes and restarts; without it the store is a volatile
// in-memory cache.
//
// On startup it prints the store enclave's measurement, which client
// applications pin during the attested channel handshake.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"speed/internal/enclave"
	"speed/internal/store"
	"speed/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "resultstore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("resultstore", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7800", "listen address")
	dataDir := fs.String("data-dir", "", "run on the persistent log engine rooted at this directory (sealed WAL + segments); empty = volatile in-memory store")
	fsync := fs.String("fsync", "commit", "log engine WAL durability: commit or none")
	memtableBytes := fs.Int64("memtable-bytes", 0, "log engine write buffer, in whole-record bytes of host memory, before flushing a segment (0 = default)")
	cacheBytes := fs.Int64("cache-bytes", 0, "log engine hot-entry cache, in whole-record bytes of host memory (0 = default)")
	compactInterval := fs.Duration("compact-interval", 0, "log engine background compaction period (0 = default, negative = disabled)")
	maxEntries := fs.Int("max-entries", 0, "max dictionary entries; past it the least recently used entry is evicted, or with -data-dir the oldest segment's first (0 = unlimited)")
	maxBlobBytes := fs.Int64("max-blob-bytes", 0, "max total ciphertext bytes (0 = unlimited)")
	quotaBytes := fs.Int64("quota-bytes", 0, "per-application ciphertext byte quota (0 = unlimited)")
	quotaRate := fs.Float64("quota-put-rate", 0, "per-application PUT rate limit per second (0 = unlimited)")
	noSGX := fs.Bool("no-sgx", false, "disable simulated SGX transition costs")
	machineSeed := fs.String("machine-seed", "", "deterministic machine identity (required with -data-dir: sealed records reopen only under the same seed)")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /debug/trace and /debug/vars on this address (empty = disabled)")
	statsInterval := fs.Duration("stats-interval", 0, "print a stats summary line at this interval (0 = off)")
	slowRequest := fs.Duration("slow-request", 0, "log requests slower than this, rate-limited, with their trace ID (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir != "" && *machineSeed == "" {
		return fmt.Errorf("-data-dir requires -machine-seed (the WAL and segments are sealed machine-bound; without a deterministic seed a restart cannot unseal them)")
	}

	platform := enclave.NewPlatform(enclave.Config{
		SimulateCosts: !*noSGX,
		PlatformSeed:  []byte(*machineSeed),
	})
	storeEnc, err := platform.Create("speed-resultstore", []byte("speed resultstore enclave v1"))
	if err != nil {
		return fmt.Errorf("create enclave: %w", err)
	}

	reg := telemetry.NewRegistry()
	platform.RegisterTelemetry(reg)
	storeEnc.RegisterTelemetry(reg)
	st, err := store.New(store.Config{
		Enclave:         storeEnc,
		MaxEntries:      *maxEntries,
		MaxBlobBytes:    *maxBlobBytes,
		Telemetry:       reg,
		DataDir:         *dataDir,
		MemtableBytes:   *memtableBytes,
		CacheBytes:      *cacheBytes,
		Fsync:           *fsync,
		CompactInterval: *compactInterval,
		Logf: func(format string, args ...any) {
			fmt.Printf("resultstore: "+format+"\n", args...)
		},
		Quota: store.QuotaConfig{
			MaxBytesPerApp: *quotaBytes,
			PutRatePerSec:  *quotaRate,
		},
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		es := st.EngineStats()
		fmt.Printf("resultstore: log engine on %s (fsync %s): %d entries recovered (%d replayed from WAL, %d segments)\n",
			*dataDir, *fsync, st.Stats().Entries, es.Replayed, es.Segments)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	// Spans this node records carry its wire address, so traces
	// assembled across the fleet stay attributable.
	reg.SetNode(ln.Addr().String())
	srvOpts := []store.ServerOption{store.WithTelemetry(reg)}
	if *slowRequest > 0 {
		srvOpts = append(srvOpts, store.WithSlowRequestLog(*slowRequest))
	}
	srv := store.NewServer(st, ln, srvOpts...)
	fmt.Printf("resultstore: listening on %s\n", ln.Addr())
	meas := storeEnc.Measurement()
	// Slice before %x: Measurement.String() abbreviates to 8 bytes, and
	// fmt applies Stringer to %x too — clients need all 32 bytes to pin.
	fmt.Printf("resultstore: enclave measurement %x\n", meas[:])

	if *metricsAddr != "" {
		ms, merr := telemetry.Serve(*metricsAddr, reg)
		if merr != nil {
			return fmt.Errorf("metrics listen: %w", merr)
		}
		defer ms.Close()
		fmt.Printf("resultstore: metrics on http://%s/metrics\n", ms.Addr())
	}

	summary := func(prefix string) {
		s := st.Stats()
		hitPct := 0.0
		if s.Gets > 0 {
			hitPct = 100 * float64(s.Hits) / float64(s.Gets)
		}
		fmt.Printf("resultstore: %s gets=%d hits=%d (%.1f%%) puts=%d dupes=%d denied=%d unauthorized=%d auth_fails=%d auth_fail_bytes=%d evictions=%d entries=%d blob_bytes=%d epc_used=%d\n",
			prefix, s.Gets, s.Hits, hitPct, s.Puts, s.PutDupes, s.PutDenied,
			s.Unauthorized, srv.AuthFailures(), srv.AuthFailBytes(),
			s.Evictions, s.Entries, s.BlobBytes,
			platform.EPCUsed())
	}
	if *statsInterval > 0 {
		ticker := time.NewTicker(*statsInterval)
		defer ticker.Stop()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			for {
				select {
				case <-ticker.C:
					summary("stats")
				case <-stop:
					return
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("resultstore: %v, shutting down\n", sig)
		if err := srv.Close(); err != nil {
			return err
		}
		summary("final")
		// Closing the store flushes the log engine's memtable and syncs
		// its WAL, so a clean shutdown restarts without replay.
		st.Close()
		return nil
	case err := <-errCh:
		return err
	}
}
