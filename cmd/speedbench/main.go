// Command speedbench regenerates the paper's evaluation tables and
// figures over the simulated-SGX SPEED implementation.
//
// Usage:
//
//	speedbench -exp all            # everything (minutes)
//	speedbench -exp table1         # Table I crypto operation latency
//	speedbench -exp fig5           # fig5a through fig5d
//	speedbench -exp fig5a|fig5b|fig5c|fig5d
//	speedbench -exp fig6
//	speedbench -exp ablations
//	speedbench -exp effort         # Fig. 4 developer effort
//	speedbench -exp smoke ...      # drive a running resultstore (see -store-addr)
//	speedbench -quick              # reduced sizes/trials for a fast pass
//
// Everything past the paper's evaluation — throughput under load,
// clusters, chunked dedup, durability — is measured by the repo
// benchmark (go run ./benchmark) and pinned by go test.
//
// With -metrics-out FILE, the run records phase-level telemetry and
// writes a JSON report (per-phase p50/p95/p99 latencies, outcome
// counters, and the full registry snapshot) to FILE, e.g.:
//
//	speedbench -exp fig5 -metrics-out BENCH_fig5.json
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"speed/internal/bench"
	"speed/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "speedbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("speedbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all, table1, fig5 (=fig5a-d), fig5a, fig5b, fig5c, fig5d, fig6, ablations, effort, smoke")
	quick := fs.Bool("quick", false, "reduced sizes and trials")
	trials := fs.Int("trials", 0, "override trial count (0 = default)")
	metricsOut := fs.String("metrics-out", "", "write a JSON telemetry report (per-phase p50/p95/p99, counters) to this file after the run")
	storeAddr := fs.String("store-addr", "", "smoke: wire address of an externally-running resultstore")
	storeMeas := fs.String("store-measurement", "", "smoke: hex store enclave measurement printed by resultstore at startup")
	machineSeed := fs.String("machine-seed", "", "smoke: must match the store's -machine-seed (same-platform attestation)")
	smokeCalls := fs.Int("smoke-calls", 0, "smoke: Execute calls to issue (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var reg *telemetry.Registry
	if *metricsOut != "" {
		reg = telemetry.NewRegistry()
		bench.SetTelemetry(reg)
		defer bench.SetTelemetry(nil)
	}

	t := 5
	if *quick {
		t = 2
	}
	if *trials > 0 {
		t = *trials
	}

	experiments := map[string]func() error{
		"table1": func() error { return runTable1(t) },
		"fig5a":  func() error { return runFig5a(*quick, t) },
		"fig5b":  func() error { return runFig5b(*quick, t) },
		"fig5c":  func() error { return runFig5c(*quick, t) },
		"fig5d":  func() error { return runFig5d(*quick, t) },
		"fig6":   func() error { return runFig6(*quick, t) },
		"ablations": func() error {
			return runAblations(*quick, t)
		},
		"effort": runEffort,
		// smoke needs an external resultstore, so it is not part of
		// "all" (see -store-addr).
		"smoke": func() error {
			return runSmoke(*storeAddr, *storeMeas, *machineSeed, *smokeCalls)
		},
	}
	runNamed := func(names ...string) error {
		for i, name := range names {
			if err := experiments[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if i < len(names)-1 {
				fmt.Println()
			}
		}
		return nil
	}
	experiments["fig5"] = func() error {
		return runNamed("fig5a", "fig5b", "fig5c", "fig5d")
	}

	var err error
	if *exp == "all" {
		err = runNamed("table1", "fig5a", "fig5b", "fig5c", "fig5d", "fig6", "ablations", "effort")
	} else if fn, ok := experiments[*exp]; ok {
		err = fn()
	} else {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := writeMetricsReport(*metricsOut, *exp, reg); err != nil {
			return fmt.Errorf("write metrics report: %w", err)
		}
		fmt.Printf("speedbench: wrote telemetry report to %s\n", *metricsOut)
	}
	return nil
}

// phaseQuantiles is one row of the report's per-phase latency summary.
type phaseQuantiles struct {
	Phase      string  `json:"phase"`
	Count      int64   `json:"count"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
}

// metricsReport is the -metrics-out JSON document.
type metricsReport struct {
	Experiment string             `json:"experiment"`
	Calls      int64              `json:"calls"`
	Reused     int64              `json:"reused"`
	Computed   int64              `json:"computed"`
	HitRate    float64            `json:"hit_rate"`
	Phases     []phaseQuantiles   `json:"phases"`
	Execute    []phaseQuantiles   `json:"execute_by_outcome"`
	Snapshot   telemetry.Snapshot `json:"snapshot"`
}

// labelValue extracts one label's value from a rendered metric name
// like `speed_execute_phase_seconds{app="x",phase="tag"}`.
func labelValue(full, label string) string {
	marker := label + `="`
	i := strings.Index(full, marker)
	if i < 0 {
		return full
	}
	rest := full[i+len(marker):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return rest
}

func quantileRows(snap telemetry.Snapshot, family, label string) []phaseQuantiles {
	var rows []phaseQuantiles
	for _, h := range snap.HistogramsByFamily(family) {
		rows = append(rows, phaseQuantiles{
			Phase:      labelValue(h.Name, label),
			Count:      h.Count,
			P50Seconds: h.P50,
			P95Seconds: h.P95,
			P99Seconds: h.P99,
		})
	}
	return rows
}

func writeMetricsReport(path, experiment string, reg *telemetry.Registry) error {
	snap := reg.Snapshot()
	calls := snap.Counter(`speed_runtime_calls_total{app="bench-app"}`)
	reused := snap.Counter(`speed_runtime_reused_total{app="bench-app"}`)
	report := metricsReport{
		Experiment: experiment,
		Calls:      calls,
		Reused:     reused,
		Computed:   snap.Counter(`speed_runtime_computed_total{app="bench-app"}`),
		Phases:     quantileRows(snap, "speed_execute_phase_seconds", "phase"),
		Execute:    quantileRows(snap, "speed_execute_seconds", "outcome"),
		Snapshot:   snap,
	}
	if calls > 0 {
		report.HitRate = float64(reused) / float64(calls)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runTable1(trials int) error {
	rows, err := bench.Table1(bench.DefaultTable1Sizes, trials*4)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderTable1(rows))
	return nil
}

func runFig5a(quick bool, trials int) error {
	sizes := []int{64, 128, 192, 256}
	if quick {
		sizes = []int{64, 128}
	}
	rows, err := bench.Fig5SIFT(sizes, trials)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderFig5("(a) feature extraction via SIFT", rows))
	return nil
}

func runFig5b(quick bool, trials int) error {
	sizes := []int{256 << 10, 512 << 10, 1 << 20, 2 << 20}
	if quick {
		sizes = []int{128 << 10, 512 << 10}
	}
	rows, err := bench.Fig5Compress(sizes, trials)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderFig5("(b) data compression via LZ77+Huffman", rows))
	return nil
}

func runFig5c(quick bool, trials int) error {
	sizes := []int{2 << 10, 8 << 10, 32 << 10, 128 << 10}
	rules := 3700
	if quick {
		sizes = []int{2 << 10, 16 << 10}
		rules = 800
	}
	rows, err := bench.Fig5Pattern(sizes, rules, trials)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderFig5(fmt.Sprintf("(c) pattern matching, %d rules, per-rule engine", rules), rows))
	fmt.Println()
	pf, err := bench.Fig5PatternPrefilter(sizes, rules, trials)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderFig5(fmt.Sprintf("(c') pattern matching, %d rules, AC-prefilter engine (ablation)", rules), pf))
	return nil
}

func runFig5d(quick bool, trials int) error {
	counts := []int{300, 1000, 3000, 10000}
	if quick {
		counts = []int{100, 500}
	}
	rows, err := bench.Fig5BoW(counts, trials)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderFig5("(d) BoW computation via MapReduce", rows))
	return nil
}

func runFig6(quick bool, trials int) error {
	sizes := bench.DefaultFig6Sizes
	if quick {
		sizes = []int{1 << 10, 100 << 10}
	}
	withSGX, err := bench.Fig6(sizes, true, trials)
	if err != nil {
		return err
	}
	withoutSGX, err := bench.Fig6(sizes, false, trials)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderFig6(withSGX, withoutSGX))
	return nil
}

func runAblations(quick bool, trials int) error {
	sizes := bench.DefaultTable1Sizes
	if quick {
		sizes = []int{1 << 10, 100 << 10}
	}
	scheme, err := bench.AblationScheme(sizes, trials*4)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderAblationScheme(scheme))
	fmt.Println()

	counts := []int{1000, 5000, 20000}
	if quick {
		counts = []int{500, 4800}
	}
	blob, err := bench.AblationBlobPlacement(counts, 8<<10)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderAblationBlobPlacement(blob, 8<<10))
	fmt.Println()

	oblCounts := []int{100, 1000, 10000}
	if quick {
		oblCounts = []int{100, 2000}
	}
	obl, err := bench.AblationOblivious(oblCounts, trials)
	if err != nil {
		return err
	}
	fmt.Print(bench.RenderAblationOblivious(obl))
	return nil
}

// runSmoke exercises a live resultstore deployment end to end with
// every call traced, printing the distributed trace IDs so the caller
// (CI's deployment smoke job) can assert they assemble on the store's
// /debug/trace?id= endpoint.
func runSmoke(storeAddr, storeMeasHex, machineSeed string, calls int) error {
	if storeAddr == "" {
		return fmt.Errorf("smoke requires -store-addr (a running resultstore)")
	}
	cfg := bench.SmokeConfig{StoreAddr: storeAddr, MachineSeed: machineSeed, Calls: calls}
	meas, err := hex.DecodeString(strings.TrimSpace(storeMeasHex))
	if err != nil || len(meas) != len(cfg.StoreMeasurement) {
		return fmt.Errorf("smoke requires -store-measurement (%d hex bytes, printed by resultstore at startup)",
			len(cfg.StoreMeasurement))
	}
	copy(cfg.StoreMeasurement[:], meas)
	res, err := bench.Smoke(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: store=%s reused=%d computed=%d coalesced=%d traces=%d\n",
		storeAddr, res.Reused, res.Computed, res.Coalesced, len(res.TraceIDs))
	for _, id := range res.TraceIDs {
		fmt.Printf("TRACE_ID=%s\n", id)
	}
	if res.Reused == 0 {
		return fmt.Errorf("smoke: no call was served from the store (dedup broken?)")
	}
	if len(res.TraceIDs) == 0 {
		return fmt.Errorf("smoke: no trace was sampled")
	}
	return nil
}

func runEffort() error {
	fmt.Println(`Developer effort (Section V-B / Fig. 4): lines of code to
deduplicate one function call with the speed.Deduplicable API.

  Case                 Wrapper creation                          Call site
  -------------------  ----------------------------------------  -----------------
  SIFT features        d, _ := speed.NewDeduplicable(app, ...)    kps, _ := d.Call(img)
  zlib-style deflate   d, _ := speed.NewDeduplicable(app, ...)    out, _ := d.Call(text)
  pattern matching     d, _ := speed.NewDeduplicable(app, ...)    ids, _ := d.Call(pkts)
  BoW (MapReduce)      d, _ := speed.NewDeduplicable(app, ...)    bow, _ := d.Call(docs)

2 lines of code per deduplicated function call, matching the paper.
See examples/ for complete runnable programs.`)
	return nil
}
