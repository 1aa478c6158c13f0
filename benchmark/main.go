// Command benchmark is the repository's benchmark: four fixed-count,
// seeded workloads driven through real TCP deployments built from the
// layer packages' public constructors. See README.md for what each
// workload and metric is for.
//
//	go run ./benchmark --workload hit_small --seed 1 --seconds 20 --trace 0
//
// measures the end-to-end metrics of one workload; --trace 1 runs the
// deployment ladder and direct probes instead and reports the per-layer
// metrics; without --workload all four run in turn; --noise K checks
// the benchmark's own steadiness. The last line of standard output is
// the run's result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

// outDir holds what a run leaves behind (span files) and, while it
// runs, its data directories. It is relative to the working directory:
// the benchmark reads and writes only inside its checkout.
const outDir = ".bench_out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 1 && args[0] == idleSpinArg {
		idleSpin() // never returns
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: hit_small, miss_durable, overlap_chunked, cluster_mix; empty runs all four")
		seed    = fs.Uint64("seed", 1, "seed of the op stream")
		seconds = fs.Float64("seconds", refSeconds, "length of the measured window the op counts are scaled for")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: deployment ladder, probes and per-layer metrics")
		dataDir = fs.String("data-dir", "", "parent of the log-engine data directories (default: a temporary directory under "+outDir+")")
		noise   = fs.Int("noise", 0, "run two interleaved sets of this many full untraced runs and compare their medians")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *noise < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	ws := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}
	// The sizing assumes two cores, whatever the machine has.
	runtime.GOMAXPROCS(2)

	root := *dataDir
	if root == "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		root = outDir
	}
	dataRoot, err := os.MkdirTemp(root, "data-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dataRoot)
	// An interrupted run removes its data directories too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dataRoot)
		os.Exit(130)
	}()

	if *noise > 0 {
		return runNoise(ws, *seed, *seconds, *noise, dataRoot, stdout, stderr)
	}
	ids, err := startIdlers()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer ids.stop()
	code := 0
	for _, w := range ws {
		var rep *report
		if *trace == 1 {
			rep, err = runTraced(w, *seed, *seconds, dataRoot, outDir, stdout)
		} else {
			rep, err = runUntraced(w, *seed, *seconds, dataRoot)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, rep)
		if !rep.Result.Correct {
			code = 1
		}
	}
	return code
}

// printReport prints a run: its metrics by name with their units, the
// full report document on one line, and last the contract's result
// line.
func printReport(out io.Writer, rep *report) {
	fmt.Fprintf(out, "\n%s (seed %d, trace %v): %d attempted, %d failed, window %.2f s\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Result.Attempted, rep.Result.Failed, rep.WindowSeconds)
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		fmt.Fprintf(out, "  %-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
	doc, _ := json.Marshal(rep)
	fmt.Fprintf(out, "report: %s\n", doc)
	line, _ := json.Marshal(rep.Result)
	fmt.Fprintf(out, "%s\n", line)
}
