package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// setupRepeats is how many times a run builds, fills and warms the
// deployment; setup_s is the median and the last one is measured.
const setupRepeats = 3

// crashStride: miss_durable reads back every crashStride-th
// acknowledged result after crash recovery.
const crashStride = 16

// report is the one JSON document a run produces beside the contract's
// result line: where and how it ran, the op counts, and the raw values
// behind every timing metric.
type report struct {
	Workload   string  `json:"workload"`
	Trace      bool    `json:"trace"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`

	Ops           map[string]int64 `json:"ops"`
	WindowSeconds float64          `json:"window_seconds"`
	// CompactSeconds is the part of the window spent in the load
	// generator's own Store.Compact calls (miss_durable).
	CompactSeconds float64              `json:"compact_seconds"`
	SetupSeconds   []float64            `json:"setup_seconds,omitempty"`
	Slices         map[string][]float64 `json:"slices"`
	RungP50US      map[string]float64   `json:"rung_p50_us,omitempty"`
	Budget         []budgetRow          `json:"budget,omitempty"`
	// Missing lists telemetry series the benchmark looked for and did
	// not find; the metrics built on them read -1.
	Missing []string `json:"missing_series,omitempty"`
	// LogLines counts diagnostics the program logged during the run.
	LogLines int64  `json:"log_lines"`
	Result   result `json:"result"`
}

type budgetRow struct {
	Name string  `json:"name"`
	US   float64 `json:"us"`
}

func newReport(w *workload, st *stream, seed uint64, seconds float64, traced bool) *report {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return &report{
		Workload: w.name, Trace: traced, Seed: seed, Seconds: seconds,
		Commit: commit, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Ops: map[string]int64{
			"calls":          int64(len(st.main.ids)),
			"requests":       int64(len(st.main.reqs)),
			"warmup_calls":   int64(len(st.warm.ids)),
			"prepopulated":   int64(len(st.prepop)),
			"distinct_bytes": st.distinctBytes,
		},
		Slices: map[string][]float64{},
	}
}

// addSlices records the raw per-slice values of a window.
func (rep *report) addSlices(win *window) {
	rep.Slices["p50_us"] = slicePercentiles(win.lat, 0.5)
	rep.Slices["p99_us"] = slicePercentiles(win.lat, 0.99)
	rep.Slices["calls_per_s"] = win.sliceRates()
	backlog := make([]float64, numSlices)
	for k, b := range win.backlog {
		backlog[k] = float64(b)
	}
	rep.Slices["max_backlog"] = backlog
}

// runUntraced is the --trace 0 run: set up setupRepeats times, measure
// the last deployment once, report the end-to-end metrics.
func runUntraced(w *workload, seed uint64, seconds float64, dataRoot string) (*report, error) {
	st := w.gen(w, seed, sizingFor(seconds, false))
	rep := newReport(w, st, seed, seconds, false)

	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		var took time.Duration
		var err error
		if d, took, err = setUp(w, st, rungReal, dataRoot); err != nil {
			return nil, err
		}
		rep.SetupSeconds = append(rep.SetupSeconds, took.Seconds())
	}
	defer d.close()

	win := measure(d, &st.main, nil)
	rep.addSlices(win)
	rep.WindowSeconds, rep.CompactSeconds = win.wall.Seconds(), win.compact.Seconds()
	rep.LogLines = d.logs.Load()
	stored, err := d.storedBytes()
	if err != nil {
		return nil, err
	}
	attempted, failed := win.calls, win.failed
	if w.crashRecover {
		_, n, f, err := d.crashAndRecover(crashStride)
		if err != nil {
			return nil, err
		}
		attempted, failed = attempted+n, failed+f
	}

	delta := func(name string) (float64, error) {
		if !win.after.found[name] {
			return 0, fmt.Errorf("%s: telemetry series %s not found", w.name, name)
		}
		return win.after.series[name] - win.before.series[name], nil
	}
	wireIn, err := delta(seriesWireIn)
	if err != nil {
		return nil, err
	}
	wireOut, err := delta(seriesWireOut)
	if err != nil {
		return nil, err
	}
	calls := float64(win.calls)
	transitions := win.after.enc.ECalls + win.after.enc.OCalls - win.before.enc.ECalls - win.before.enc.OCalls
	values := map[string]float64{
		"setup_s":                      median(rep.SetupSeconds),
		"calls_per_s":                  calls / win.wall.Seconds(),
		"latency_p50_us":               sliceMedian(win.lat, 0.5),
		"cpu_us_per_call":              float64(win.cpu.Microseconds()) / calls,
		"transitions_per_call":         float64(transitions) / calls,
		"wire_bytes_per_result_byte":   (wireIn + wireOut) / float64(win.resultBytes),
		"stored_bytes_per_result_byte": float64(stored) / float64(st.distinctBytes),
		"epc_peak_mb":                  float64(win.epcPeak) / mib,
	}
	metrics, err := fill(endToEnd, values)
	if err != nil {
		return nil, err
	}
	rep.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	return rep, nil
}

// pass is one traced or untraced run of the op stream on one rung.
type pass struct {
	win *window
	tr  *tracer
	p50 float64 // median send-to-completion time, µs
}

// runTraced is the --trace 1 run: the same (shorter) op stream on every
// rung of the deployment ladder with spans on, once more on the top
// rung with spans off, then the direct probes; it reports the per-layer
// metrics and prints the budget table.
func runTraced(w *workload, seed uint64, seconds float64, dataRoot, outDir string, out io.Writer) (*report, error) {
	st := w.gen(w, seed, sizingFor(seconds, true))
	rep := newReport(w, st, seed, seconds, true)
	rep.RungP50US = map[string]float64{}

	top := rungRemote
	if w.logEngine || w.cluster {
		top = rungReal
	}
	var tracers []*tracer
	runPass := func(r rung, traced bool) (*pass, *deployment, error) {
		d, _, err := setUp(w, st, r, dataRoot)
		if err != nil {
			return nil, nil, err
		}
		p := &pass{}
		if traced {
			p.tr = newTracer(rungNames[r])
			tracers = append(tracers, p.tr)
		}
		p.win = measure(d, &st.main, p.tr)
		p.p50 = sliceMedian(p.win.service, 0.5)
		return p, d, nil
	}
	ladder := map[rung]*pass{}
	attempted, failed := 0, 0
	for r := rungCompute; r <= top; r++ {
		p, d, err := runPass(r, true)
		if err != nil {
			return nil, err
		}
		d.close()
		ladder[r] = p
		rep.RungP50US[rungNames[r]] = p.p50
		attempted, failed = attempted+p.win.calls, failed+p.win.failed
	}

	plain, d, err := runPass(top, false)
	if err != nil {
		return nil, err
	}
	defer d.close()
	win := plain.win
	rep.addSlices(win)
	rep.WindowSeconds, rep.CompactSeconds = win.wall.Seconds(), win.compact.Seconds()
	rep.LogLines = d.logs.Load()
	attempted, failed = attempted+win.calls, failed+win.failed
	var recoverMS, recoveredFrac float64
	if w.crashRecover {
		took, n, f, err := d.crashAndRecover(crashStride)
		if err != nil {
			return nil, err
		}
		attempted, failed = attempted+n, failed+f
		recoverMS, recoveredFrac = float64(took.Microseconds())/1e3, float64(n-f)/float64(n)
	}

	probeTr := newTracer("probes")
	tracers = append(tracers, probeTr)
	pr, err := runProbes(w, st, scaled(probeIters, seconds/refSeconds, 20), dataRoot, probeTr)
	if err != nil {
		return nil, err
	}

	// Counts: deltas over the untraced top-rung window.
	b, a := win.before, win.after
	calls := float64(win.calls)
	series := func(name string) float64 {
		if !a.found[name] {
			rep.Missing = append(rep.Missing, name)
			return -1
		}
		return a.series[name] - b.series[name]
	}
	// layerSeries reads a series of a layer that only some workloads
	// deploy.
	layerSeries := func(present bool, name string) float64 {
		if !present {
			return 0
		}
		return series(name)
	}
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	rt0, rt1 := b.rt, a.rt
	fetchedPerCall := float64(rt1.ChunksFetched-rt0.ChunksFetched) / calls

	// The budget: rows whose sum should reproduce the end-to-end p50.
	// Up to the native rung the split comes from the direct probes
	// (what the typical call does, times what each step costs alone),
	// with dedup.self_us as the remainder; above it each row is the
	// difference between two rungs.
	p50 := func(r rung) float64 { return ladder[r].p50 }
	computeUS := quantileOf(ladder[rungCompute].tr.durations(spanCompute), 0.5)
	var rows []budgetRow
	row := func(name string, us float64) { rows = append(rows, budgetRow{name, us}) }
	inner := 0.0
	innerRow := func(name string, us float64) { row(name, us); inner += us }
	if w.missTypical {
		innerRow("app.compute_us", computeUS)
		innerRow("mle.tag_us", pr.tagUS)
		innerRow("store.get_us", pr.memGetUS)
		innerRow("mle.seal_us", pr.sealUS)
		innerRow("store.put_us", pr.memPutUS)
	} else {
		innerRow("mle.tag_us", pr.tagUS)
		innerRow("store.get_us", pr.memGetUS*(1+fetchedPerCall))
		opens := 1.0
		if w.chunkThreshold > 0 {
			opens = fetchedPerCall
		}
		innerRow("mle.open_us", pr.openUS*opens)
	}
	selfUS := p50(rungNative) - inner
	row("dedup.self_us", selfUS)
	transitionUS := p50(rungSGX) - p50(rungNative)
	row("enclave.transition_us_per_call", transitionUS)
	remoteUS := p50(rungRemote) - p50(rungSGX)
	row("store.remote_us_per_call", remoteUS)
	logPutUS, logGetUS, clusterUS := 0.0, 0.0, 0.0
	if w.logEngine {
		logPutUS, logGetUS = pr.logPutUS-pr.memPutUS, pr.logGetUS-pr.memGetUS
	}
	switch {
	case w.cluster:
		clusterUS = p50(rungReal) - p50(rungRemote)
		row("cluster.us_per_call", clusterUS)
	case w.logEngine:
		row("logengine.put_us", logPutUS)
	}
	e2eP50 := sliceMedian(win.lat, 0.5)
	waitUS := e2eP50 - plain.p50
	if w.rate > 0 {
		row("loadgen.wait_us", waitUS)
	}
	var sum float64
	for _, r := range rows {
		sum += r.US
	}
	residualPct := 100 * (e2eP50 - sum) / e2eP50
	rep.Budget = rows

	writeAmp := 0.0
	if w.logEngine {
		if writeAmp = -1; a.diskOK {
			writeAmp = ratio(float64(a.diskWritten-b.diskWritten), float64(a.store.BlobBytes-b.store.BlobBytes))
		}
	}
	worstRate := slices.Min(win.sliceRates())
	worstP99 := slices.Max(slicePercentiles(win.lat, 0.99))
	maxBacklog := slices.Max(win.backlog[:])
	rungOne := ladder[rungNative].win
	cacheHits, cacheMisses := layerSeries(w.logEngine, seriesCacheHits), layerSeries(w.logEngine, seriesCacheMisses)
	cacheRatio := ratio(cacheHits, cacheHits+cacheMisses)
	if cacheHits < 0 || cacheMisses < 0 {
		cacheRatio = -1
	}
	segments := 0.0
	if w.logEngine {
		if segments = -1; a.found[seriesSegments] {
			segments = a.series[seriesSegments]
		}
	}
	values := map[string]float64{
		"app.compute_us": computeUS,

		"dedup.reused":               float64(rt1.Reused - rt0.Reused),
		"dedup.computed":             float64(rt1.Computed - rt0.Computed),
		"dedup.coalesced":            float64(rt1.Coalesced - rt0.Coalesced),
		"dedup.verify_failures":      float64(rt1.VerifyFailures - rt0.VerifyFailures),
		"dedup.degraded":             float64(rt1.Degraded - rt0.Degraded),
		"dedup.retries":              float64(rt1.Retries - rt0.Retries),
		"dedup.hit_ratio":            float64(rt1.Reused-rt0.Reused+rt1.Coalesced-rt0.Coalesced) / calls,
		"dedup.self_us":              selfUS,
		"dedup.allocs_per_call":      float64(rungOne.mallocs) / float64(rungOne.calls),
		"dedup.alloc_bytes_per_call": float64(rungOne.heap) / float64(rungOne.calls),

		"mle.tag_us":  pr.tagUS,
		"mle.open_us": pr.openUS,
		"mle.seal_us": pr.sealUS,

		"enclave.ecalls":                 float64(a.enc.ECalls - b.enc.ECalls),
		"enclave.ocalls":                 float64(a.enc.OCalls - b.enc.OCalls),
		"enclave.transition_us_per_call": transitionUS,
		"enclave.ecall_us":               pr.ecallUS,
		"enclave.page_faults":            float64(a.enc.PageFaults - b.enc.PageFaults),
		"enclave.alloc_bytes":            float64(a.enc.AllocBytes - b.enc.AllocBytes),

		"wire.roundtrip_us":  pr.wireRoundTripUS,
		"wire.bytes_in":      series(seriesWireIn),
		"wire.bytes_out":     series(seriesWireOut),
		"wire.auth_failures": series(seriesAuthFailures),

		"store.remote_us_per_call": remoteUS,
		"store.get_us":             pr.memGetUS,
		"store.put_us":             pr.memPutUS,
		"store.gets":               float64(a.store.Gets - b.store.Gets),
		"store.hits":               float64(a.store.Hits - b.store.Hits),
		"store.puts":               float64(a.store.Puts - b.store.Puts),
		"store.put_dupes":          float64(a.store.PutDupes - b.store.PutDupes),
		"store.evictions":          float64(a.store.Evictions - b.store.Evictions),

		"logengine.put_us":                  logPutUS,
		"logengine.get_us":                  logGetUS,
		"logengine.wal_records":             layerSeries(w.logEngine, seriesWALRecords),
		"logengine.flushes":                 layerSeries(w.logEngine, seriesFlushes),
		"logengine.compactions":             layerSeries(w.logEngine, seriesCompactions),
		"logengine.segments":                segments,
		"logengine.cache_hit_ratio":         cacheRatio,
		"logengine.write_amp":               writeAmp,
		"logengine.compact_ms":              float64(win.compact.Microseconds()) / 1e3,
		"logengine.worst_slice_calls_per_s": worstRate,
		"logengine.recover_ms":              recoverMS,
		"logengine.recovered_frac":          recoveredFrac,

		"cluster.us_per_call":               clusterUS,
		"cluster.routed":                    layerSeries(w.cluster, seriesRouted),
		"cluster.failovers":                 float64(a.failovers - b.failovers),
		"cluster.read_repairs":              float64(a.readRepairs - b.readRepairs),
		"cluster.node_round_trips_per_call": series(seriesServerReqs) / calls,

		"chunk.split_us_per_mib":  pr.splitUSPerMiB,
		"chunk.manifest_us":       pr.manifestUS,
		"chunk.chunks_per_result": pr.chunksPerResult,
		"chunk.chunked_puts":      float64(rt1.ChunkedPuts - rt0.ChunkedPuts),
		"chunk.manifest_reuses":   float64(rt1.ManifestReuses - rt0.ManifestReuses),
		"chunk.chunks_fetched":    float64(rt1.ChunksFetched - rt0.ChunksFetched),
		"chunk.cache_hit_ratio": ratio(float64(rt1.ChunkCacheHits-rt0.ChunkCacheHits),
			float64(rt1.ChunkCacheHits-rt0.ChunkCacheHits+rt1.ChunksFetched-rt0.ChunksFetched)),
		"chunk.chunks_skipped": float64(rt1.ChunksSkipped - rt0.ChunksSkipped),

		"loadgen.p99_us":             quantileOf(win.lat, 0.99),
		"loadgen.lateness_p99_us":    quantileOf(win.late, 0.99),
		"loadgen.max_backlog":        float64(maxBacklog),
		"loadgen.busy_frac":          win.busy.Seconds() / (float64(w.dispatchers) * win.wall.Seconds()),
		"loadgen.wait_us":            waitUS,
		"loadgen.worst_slice_p99_us": worstP99,

		"trace.overhead_pct":  100 * (ladder[top].p50 - plain.p50) / plain.p50,
		"budget.residual_pct": residualPct,
	}
	metrics, err := fill(perLayer, values)
	if err != nil {
		return nil, err
	}
	rep.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := writeSpans(tracePath, tracers); err != nil {
		return nil, err
	}
	printBudget(out, w, rep, sum, e2eP50, tracePath)
	return rep, nil
}

// printBudget prints the per-workload budget table: the ladder, the
// rows, their sum, the end-to-end p50 and the residual.
func printBudget(out io.Writer, w *workload, rep *report, sum, e2eP50 float64, tracePath string) {
	fmt.Fprintf(out, "\n%s: deployment ladder, median send-to-completion time per call\n", w.name)
	for r := rungCompute; r <= rungReal; r++ {
		if v, ok := rep.RungP50US[rungNames[r]]; ok {
			fmt.Fprintf(out, "  rung %d %-8s %10.2f us\n", r, rungNames[r], v)
		}
	}
	fmt.Fprintf(out, "%s: layer budget of the typical call\n", w.name)
	for _, r := range rep.Budget {
		fmt.Fprintf(out, "  %-32s %10.2f us  %5.1f%%\n", r.Name, r.US, 100*r.US/e2eP50)
	}
	fmt.Fprintf(out, "  %-32s %10.2f us\n", "sum of rows", sum)
	fmt.Fprintf(out, "  %-32s %10.2f us\n", "end-to-end latency_p50_us", e2eP50)
	fmt.Fprintf(out, "  %-32s %10.2f %%\n", "budget.residual_pct", rep.Result.Metrics["budget.residual_pct"].Value)
	fmt.Fprintf(out, "  %-32s %10.2f %%\n", "trace.overhead_pct", rep.Result.Metrics["trace.overhead_pct"].Value)
	fmt.Fprintf(out, "  spans written to %s\n", tracePath)
}
