// Command benchgate is a dependency-free benchstat-style regression
// gate: it compares a fresh `go test -bench -benchmem` run against a
// checked-in baseline and fails (exit 1) when a benchmark regressed by
// more than the configured threshold with statistical significance.
//
//	go test -run '^$' -bench 'Hot|ChannelRoundTrip' -benchmem -count 6 ./internal/wire ./internal/mle > new.txt
//	benchgate -baseline bench/baseline.txt -new new.txt
//
// Comparison rules, chosen so a baseline recorded on one machine stays
// meaningful on another:
//
//   - allocs/op is machine-independent, so it is held near-exactly: any
//     mean increase beyond +0.5 allocs is a regression. This is the
//     hard gate for the zero-allocation hot path.
//   - B/op is near-machine-independent; a small relative plus absolute
//     slack absorbs size-class jitter.
//   - ns/op varies across hardware, so only a large relative slowdown
//     (default +30%, -time-threshold or SPEED_BENCH_TIME_THRESHOLD to
//     override) that is also statistically significant (Welch-style
//     2-sigma on the run-to-run spread, which needs -count >= 2) fails
//     the gate.
//   - one ratio row needs no baseline: BenchmarkHotMuxGetHitOverFloor
//     times a mux GET hit and a BenchmarkHotTCPFloor ping-pong of the
//     same sizes in turn, so both run under the same load, and reports
//     their ratio as x-floor. Its median over the repetitions must stay
//     within 2.0.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		baselinePath  = flag.String("baseline", "bench/baseline.txt", "checked-in baseline benchmark output")
		newPath       = flag.String("new", "-", "fresh benchmark output ('-' for stdin)")
		timeThreshold = flag.Float64("time-threshold", defaultTimeThreshold(), "relative ns/op increase tolerated before failing (0.30 = +30%)")
	)
	flag.Parse()

	baseline, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	fresh, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	report, failed := compare(baseline, fresh, *timeThreshold)
	fmt.Print(report)
	if failed {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL — benchmark regression against baseline")
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func defaultTimeThreshold() float64 {
	if s := os.Getenv("SPEED_BENCH_TIME_THRESHOLD"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.30
}

// sample is the per-metric observations of one benchmark across -count
// repetitions.
type sample struct {
	nsPerOp     []float64
	bytesPerOp  []float64
	allocsPerOp []float64
	xFloor      []float64 // the x-floor metric, where reported
}

// parseFile reads `go test -bench` output: one "Benchmark..." line per
// repetition, interleaved with pkg headers and PASS/ok lines that are
// ignored. Results from multiple packages may share a file; benchmark
// names are assumed unique across them (true here: Hot* benchmarks are
// per-package named).
func parseFile(path string) (map[string]*sample, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	out := make(map[string]*sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, ns, bytesOp, allocs, xFloor, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		s := out[name]
		if s == nil {
			s = &sample{}
			out[name] = s
		}
		s.nsPerOp = append(s.nsPerOp, ns)
		if !math.IsNaN(bytesOp) {
			s.bytesPerOp = append(s.bytesPerOp, bytesOp)
		}
		if !math.IsNaN(allocs) {
			s.allocsPerOp = append(s.allocsPerOp, allocs)
		}
		if !math.IsNaN(xFloor) {
			s.xFloor = append(s.xFloor, xFloor)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// parseLine extracts (name, ns/op, B/op, allocs/op, x-floor) from one
// benchmark output line. B/op and allocs/op are NaN when -benchmem was
// off, x-floor when the benchmark does not report it.
func parseLine(line string) (name string, ns, bytesOp, allocs, xFloor float64, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", 0, 0, 0, 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", 0, 0, 0, 0, false
	}
	name = fields[0]
	// Strip the -GOMAXPROCS suffix so runs from different machines
	// compare by benchmark identity.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	ns, bytesOp, allocs, xFloor = math.NaN(), math.NaN(), math.NaN(), math.NaN()
	// fields[1] is the iteration count; the rest are (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, 0, 0, 0, false
		}
		switch fields[i+1] {
		case "ns/op":
			ns = v
		case "B/op":
			bytesOp = v
		case "allocs/op":
			allocs = v
		case "x-floor":
			xFloor = v
		}
	}
	if math.IsNaN(ns) {
		return "", 0, 0, 0, 0, false
	}
	return name, ns, bytesOp, allocs, xFloor, true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// significant reports whether the difference of means clears a
// Welch-style two-sigma bar on the combined run-to-run spread. With a
// single repetition per side there is no spread estimate, so any
// difference counts as significant (the thresholds still apply).
func significant(old, new []float64) bool {
	if len(old) < 2 || len(new) < 2 {
		return true
	}
	se := math.Sqrt(variance(old)/float64(len(old)) + variance(new)/float64(len(new)))
	if se == 0 {
		return mean(new) != mean(old)
	}
	return math.Abs(mean(new)-mean(old)) > 2*se
}

// verdict is one benchmark's comparison outcome.
type verdict struct {
	name   string
	reason string // empty = ok
	oldNs  float64
	newNs  float64
}

// compare evaluates every benchmark present in both runs and renders a
// report. A baseline benchmark missing from the new run fails the gate:
// it crashed, or was renamed or deleted without a baseline refresh. A
// benchmark new to the run is listed and passes.
func compare(baseline, fresh map[string]*sample, timeThreshold float64) (report string, failed bool) {
	var names []string
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %14s %14s %9s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "verdict")
	for _, name := range names {
		old, ok := baseline[name]
		nw := fresh[name]
		if !ok || nw == nil {
			fmt.Fprintf(&b, "%-40s %14s %14s %9s  %s\n", name, "-", "-", "-", "MISSING from new run")
			failed = true
			continue
		}
		v := judge(name, old, nw, timeThreshold)
		delta := (v.newNs - v.oldNs) / v.oldNs * 100
		status := "ok"
		if v.reason != "" {
			status = "REGRESSION: " + v.reason
			failed = true
		}
		fmt.Fprintf(&b, "%-40s %14.1f %14.1f %+8.1f%%  %s\n", name, v.oldNs, v.newNs, delta, status)
	}
	for name := range fresh {
		if _, ok := baseline[name]; !ok {
			fmt.Fprintf(&b, "%-40s %14s %14s %9s  %s\n", name, "-", "-", "-", "new benchmark (not in baseline)")
		}
	}
	// The ratio row: the mux GET hit over the socket floor, timed in
	// turn in one benchmark.
	if r := fresh["BenchmarkHotMuxGetHitOverFloor"]; r != nil && len(r.xFloor) > 0 {
		ratio, status := median(r.xFloor), "ok"
		if ratio > 2.0 {
			status, failed = "REGRESSION: more than 2.0x the socket floor", true
		}
		fmt.Fprintf(&b, "%-40s %14s %14s %8.2fx  %s\n", "BenchmarkHotMuxGetHit/floor", "-", "-", ratio, status)
	}
	return b.String(), failed
}

// judge applies the per-metric rules to one benchmark.
func judge(name string, old, nw *sample, timeThreshold float64) verdict {
	v := verdict{name: name, oldNs: mean(old.nsPerOp), newNs: mean(nw.nsPerOp)}

	// allocs/op: the hard, machine-independent gate.
	if len(old.allocsPerOp) > 0 && len(nw.allocsPerOp) > 0 {
		oldA, newA := mean(old.allocsPerOp), mean(nw.allocsPerOp)
		if newA > oldA+0.5 {
			v.reason = fmt.Sprintf("allocs/op %.1f -> %.1f", oldA, newA)
			return v
		}
	}

	// B/op: small relative + absolute slack for size-class jitter.
	if len(old.bytesPerOp) > 0 && len(nw.bytesPerOp) > 0 {
		oldB, newB := mean(old.bytesPerOp), mean(nw.bytesPerOp)
		if newB > oldB*1.10+64 {
			v.reason = fmt.Sprintf("B/op %.0f -> %.0f", oldB, newB)
			return v
		}
	}

	// ns/op: relative threshold plus significance.
	if v.newNs > v.oldNs*(1+timeThreshold) && significant(old.nsPerOp, nw.nsPerOp) {
		v.reason = fmt.Sprintf("ns/op %.1f -> %.1f (>%+.0f%%)", v.oldNs, v.newNs, timeThreshold*100)
		return v
	}
	return v
}
