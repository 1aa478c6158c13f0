package main

import "fmt"

// metricDef names one metric of the benchmark's contract. The tables
// below are the single list of names and units; BENCHMARK.json repeats
// them and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, the same eight on every
// workload. The timing bounds are the contract's maximum: the reference
// box itself moves by 10-25% within the hour (README.md "Noise floor"),
// and a tighter bound would reject changes for what the machine did.
// The count metrics move by at most 2% across seeds (exactly 0 on three
// of the four workloads) and keep bounds of three times that, so later
// changes have something near-exact to claim on.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"calls_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_call", "us", "lower", 0.25},
	{"transitions_per_call", "1", "lower", 0.03},
	{"wire_bytes_per_result_byte", "B/B", "lower", 0.06},
	{"stored_bytes_per_result_byte", "B/B", "lower", 0.03},
	{"epc_peak_mb", "MiB", "lower", 0.05},
}

// perLayer is the layer budget and the counts behind it, reported by
// the traced run. 0 means the layer did no work on this workload; -1
// means the value could not be read (a telemetry series is missing).
var perLayer = []metricDef{
	{name: "app.compute_us", unit: "us", better: "lower"},

	{name: "dedup.reused", unit: "count", better: "higher"},
	{name: "dedup.computed", unit: "count", better: "lower"},
	{name: "dedup.coalesced", unit: "count", better: "higher"},
	{name: "dedup.verify_failures", unit: "count", better: "lower"},
	{name: "dedup.degraded", unit: "count", better: "lower"},
	{name: "dedup.retries", unit: "count", better: "lower"},
	{name: "dedup.hit_ratio", unit: "1", better: "higher"},
	{name: "dedup.self_us", unit: "us", better: "lower"},
	{name: "dedup.allocs_per_call", unit: "1", better: "lower"},
	{name: "dedup.alloc_bytes_per_call", unit: "B", better: "lower"},

	{name: "mle.tag_us", unit: "us", better: "lower"},
	{name: "mle.open_us", unit: "us", better: "lower"},
	{name: "mle.seal_us", unit: "us", better: "lower"},

	{name: "enclave.ecalls", unit: "count", better: "lower"},
	{name: "enclave.ocalls", unit: "count", better: "lower"},
	{name: "enclave.transition_us_per_call", unit: "us", better: "lower"},
	{name: "enclave.ecall_us", unit: "us", better: "lower"},
	{name: "enclave.page_faults", unit: "count", better: "lower"},
	{name: "enclave.alloc_bytes", unit: "B", better: "lower"},

	{name: "wire.roundtrip_us", unit: "us", better: "lower"},
	{name: "wire.bytes_in", unit: "B", better: "lower"},
	{name: "wire.bytes_out", unit: "B", better: "lower"},
	{name: "wire.auth_failures", unit: "count", better: "lower"},

	{name: "store.remote_us_per_call", unit: "us", better: "lower"},
	{name: "store.get_us", unit: "us", better: "lower"},
	{name: "store.put_us", unit: "us", better: "lower"},
	{name: "store.gets", unit: "count", better: "lower"},
	{name: "store.hits", unit: "count", better: "higher"},
	{name: "store.puts", unit: "count", better: "lower"},
	{name: "store.put_dupes", unit: "count", better: "lower"},
	{name: "store.evictions", unit: "count", better: "lower"},

	{name: "logengine.put_us", unit: "us", better: "lower"},
	{name: "logengine.get_us", unit: "us", better: "lower"},
	{name: "logengine.wal_records", unit: "count", better: "lower"},
	{name: "logengine.flushes", unit: "count", better: "lower"},
	{name: "logengine.compactions", unit: "count", better: "lower"},
	{name: "logengine.segments", unit: "count", better: "lower"},
	{name: "logengine.cache_hit_ratio", unit: "1", better: "higher"},
	{name: "logengine.write_amp", unit: "B/B", better: "lower"},
	{name: "logengine.compact_ms", unit: "ms", better: "lower"},
	{name: "logengine.worst_slice_calls_per_s", unit: "1/s", better: "higher"},
	{name: "logengine.recover_ms", unit: "ms", better: "lower"},
	{name: "logengine.recovered_frac", unit: "1", better: "higher"},

	{name: "cluster.us_per_call", unit: "us", better: "lower"},
	{name: "cluster.routed", unit: "count", better: "lower"},
	{name: "cluster.failovers", unit: "count", better: "lower"},
	{name: "cluster.read_repairs", unit: "count", better: "lower"},
	{name: "cluster.node_round_trips_per_call", unit: "1", better: "lower"},

	{name: "chunk.split_us_per_mib", unit: "us", better: "lower"},
	{name: "chunk.manifest_us", unit: "us", better: "lower"},
	{name: "chunk.chunks_per_result", unit: "1", better: "lower"},
	{name: "chunk.chunked_puts", unit: "count", better: "lower"},
	{name: "chunk.manifest_reuses", unit: "count", better: "higher"},
	{name: "chunk.chunks_fetched", unit: "count", better: "lower"},
	{name: "chunk.cache_hit_ratio", unit: "1", better: "higher"},
	{name: "chunk.chunks_skipped", unit: "count", better: "higher"},

	{name: "loadgen.p99_us", unit: "us", better: "lower"},
	{name: "loadgen.lateness_p99_us", unit: "us", better: "lower"},
	{name: "loadgen.max_backlog", unit: "count", better: "lower"},
	{name: "loadgen.busy_frac", unit: "1", better: "lower"},
	{name: "loadgen.wait_us", unit: "us", better: "lower"},
	{name: "loadgen.worst_slice_p99_us", unit: "us", better: "lower"},

	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "budget.residual_pct", unit: "%", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the contract asks for: the last line of standard
// output, exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metric map for defs from values, failing on a name
// that was never computed so the tables and the code cannot drift.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was never computed", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
