package logengine

import (
	storeengine "speed/internal/store/engine"
	"speed/internal/telemetry"
)

// RegisterTelemetry adds the engine's WAL, segment, compaction and
// cache series, all labeled engine="log". A volatile engine has none of
// those tiers and registers nothing.
func (e *Engine) RegisterTelemetry(reg *telemetry.Registry) {
	if e.wal == nil {
		return
	}
	lbl := telemetry.L("engine", "log")
	counter := func(name, help string, field func(storeengine.Stats) int64, extra ...telemetry.Label) {
		reg.NewCounterFunc(name, help, func() int64 { return field(e.Stats()) }, append([]telemetry.Label{lbl}, extra...)...)
	}
	gauge := func(name, help string, field func(storeengine.Stats) float64) {
		reg.NewGaugeFunc(name, help, func() float64 { return field(e.Stats()) }, lbl)
	}
	counter("speed_store_engine_wal_records_total", "records appended to the write-ahead log",
		func(st storeengine.Stats) int64 { return st.WALRecords })
	counter("speed_store_engine_wal_syncs_total", "fsyncs of appended write-ahead-log data (one per PUT message under fsync=commit)",
		func(st storeengine.Stats) int64 { return st.WALSyncs })
	counter("speed_store_engine_flushes_total", "memtable flushes to sorted segments, counted when the memtable freezes",
		func(st storeengine.Stats) int64 { return st.Flushes })
	counter("speed_store_engine_flush_waits_total", "PUTs that waited for the frozen memtable's segment to be written",
		func(st storeengine.Stats) int64 { return st.FlushWaits })
	counter("speed_store_engine_compactions_total", "completed segment compactions",
		func(st storeengine.Stats) int64 { return st.Compactions })
	counter("speed_store_engine_segment_probes_total", "per-segment lookups that read the segment file",
		func(st storeengine.Stats) int64 { return st.SegmentProbes })
	counter("speed_store_engine_filter_skips_total", "per-segment lookups a fence or key filter answered without a read",
		func(st storeengine.Stats) int64 { return st.FilterSkips })
	counter("speed_store_engine_compaction_bytes_total", "segment bytes merges consumed and produced",
		func(st storeengine.Stats) int64 { return st.CompactionBytesRead }, telemetry.L("dir", "read"))
	counter("speed_store_engine_compaction_bytes_total", "segment bytes merges consumed and produced",
		func(st storeengine.Stats) int64 { return st.CompactionBytesWritten }, telemetry.L("dir", "written"))
	compact := reg.NewHistogram("speed_store_engine_compaction_seconds", "duration of one segment merge", lbl)
	flush := reg.NewHistogram("speed_store_engine_flush_seconds", "duration of one background flush, from the start of its segment write to its manifest commit", lbl)
	e.mu.Lock()
	e.compactSeconds, e.flushSeconds = compact, flush
	e.mu.Unlock()
	counter("speed_store_engine_cache_hits_total", "lookups served by the in-enclave tier",
		func(st storeengine.Stats) int64 { return st.CacheHits })
	counter("speed_store_engine_cache_misses_total", "lookups that consulted segment files",
		func(st storeengine.Stats) int64 { return st.CacheMisses })
	gauge("speed_store_engine_wal_bytes", "current write-ahead-log length",
		func(st storeengine.Stats) float64 { return float64(st.WALBytes) })
	gauge("speed_store_engine_segments", "immutable segment files",
		func(st storeengine.Stats) float64 { return float64(st.Segments) })
	gauge("speed_store_engine_compaction_debt_bytes", "segment bytes the tiering policy would merge now",
		func(st storeengine.Stats) float64 { return float64(st.CompactionDebtBytes) })
	gauge("speed_store_engine_segment_bytes", "total on-disk segment size",
		func(st storeengine.Stats) float64 { return float64(st.SegmentBytes) })
}
