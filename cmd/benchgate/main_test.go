package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineFixture = `goos: linux
goarch: amd64
pkg: speed/internal/wire
BenchmarkChannelRoundTrip-8   	  100000	      5000 ns/op	 900.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkChannelRoundTrip-8   	  100000	      5100 ns/op	 890.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkChannelRoundTrip-8   	  100000	      4900 ns/op	 910.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkHotAppendMarshal-8   	 2000000	       600 ns/op	6000.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkHotAppendMarshal-8   	 2000000	       610 ns/op	5900.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkHotAppendMarshal-8   	 2000000	       590 ns/op	6100.00 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	speed/internal/wire	3.000s
`

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseLine(t *testing.T) {
	name, ns, b, allocs, xFloor, ok := parseLine("BenchmarkChannelRoundTrip-16   \t  100000\t      5000 ns/op\t 900.00 MB/s\t    4096 B/op\t       2 allocs/op")
	if !ok {
		t.Fatal("parseLine rejected a valid line")
	}
	if name != "BenchmarkChannelRoundTrip" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped)", name)
	}
	if ns != 5000 || b != 4096 || allocs != 2 || !math.IsNaN(xFloor) {
		t.Errorf("parsed (%v, %v, %v, %v), want (5000, 4096, 2, NaN)", ns, b, allocs, xFloor)
	}
	if _, _, _, _, xFloor, _ = parseLine("BenchmarkHotMuxGetHitOverFloor-2  50000  37000 ns/op  1.62 x-floor  5456 B/op  12 allocs/op"); xFloor != 1.62 {
		t.Errorf("x-floor parsed as %v, want 1.62", xFloor)
	}

	// Without -benchmem, B/op and allocs/op are absent.
	_, ns, b, allocs, _, ok = parseLine("BenchmarkFoo-4   100  12.5 ns/op")
	if !ok || ns != 12.5 || !math.IsNaN(b) || !math.IsNaN(allocs) {
		t.Errorf("bare line parsed as (%v, %v, %v, %v)", ns, b, allocs, ok)
	}

	for _, junk := range []string{"PASS", "ok  \tspeed/internal/wire\t3.0s", "goos: linux", ""} {
		if _, _, _, _, _, ok := parseLine(junk); ok {
			t.Errorf("parseLine accepted %q", junk)
		}
	}
}

func TestParseFile(t *testing.T) {
	samples, err := parseFile(writeTemp(t, baselineFixture))
	if err != nil {
		t.Fatal(err)
	}
	s := samples["BenchmarkChannelRoundTrip"]
	if s == nil || len(s.nsPerOp) != 3 {
		t.Fatalf("round trip samples = %+v, want 3 repetitions", s)
	}
	if got := mean(s.nsPerOp); got != 5000 {
		t.Errorf("mean ns/op = %v, want 5000", got)
	}
}

func TestCompareAccepts(t *testing.T) {
	baseline, _ := parseFile(writeTemp(t, baselineFixture))

	// Identical run: pass.
	if report, failed := compare(baseline, baseline, 0.30); failed {
		t.Errorf("identical run failed the gate:\n%s", report)
	}

	// Small, in-threshold time wobble: pass.
	wobble := strings.NewReplacer("5000 ns/op", "5300 ns/op", "5100 ns/op", "5350 ns/op", "4900 ns/op", "5250 ns/op").Replace(baselineFixture)
	fresh, _ := parseFile(writeTemp(t, wobble))
	if report, failed := compare(baseline, fresh, 0.30); failed {
		t.Errorf("in-threshold wobble failed the gate:\n%s", report)
	}
}

// TestCompareFailsRegressedAllocs is the dry run the acceptance
// criteria ask for: a deliberately regressed build — the hot path
// picking up per-op allocations — must fail the gate even when timing
// looks fine.
func TestCompareFailsRegressedAllocs(t *testing.T) {
	baseline, _ := parseFile(writeTemp(t, baselineFixture))
	regressed := strings.ReplaceAll(baselineFixture, "0 B/op\t       0 allocs/op", "4096 B/op\t       2 allocs/op")
	fresh, _ := parseFile(writeTemp(t, regressed))

	report, failed := compare(baseline, fresh, 0.30)
	if !failed {
		t.Fatalf("allocation regression passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "allocs/op") {
		t.Errorf("report does not name the allocs/op regression:\n%s", report)
	}
}

func TestCompareFailsRegressedTime(t *testing.T) {
	baseline, _ := parseFile(writeTemp(t, baselineFixture))
	// +100% with tight spread: over threshold and significant.
	slowed := strings.NewReplacer("5000 ns/op", "10000 ns/op", "5100 ns/op", "10100 ns/op", "4900 ns/op", "9900 ns/op").Replace(baselineFixture)
	fresh, _ := parseFile(writeTemp(t, slowed))

	report, failed := compare(baseline, fresh, 0.30)
	if !failed {
		t.Fatalf("2x slowdown passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "ns/op") {
		t.Errorf("report does not name the ns/op regression:\n%s", report)
	}
}

func TestCompareInsignificantNoiseDoesNotFail(t *testing.T) {
	// Huge run-to-run spread on both sides: the mean is over threshold
	// but the difference is inside two sigma, so the gate holds its
	// fire instead of flaking.
	noisyBase := `BenchmarkJitter-8  10  1000 ns/op
BenchmarkJitter-8  10  9000 ns/op
BenchmarkJitter-8  10  2000 ns/op
BenchmarkJitter-8  10  8000 ns/op
`
	noisyNew := `BenchmarkJitter-8  10  2000 ns/op
BenchmarkJitter-8  10  9500 ns/op
BenchmarkJitter-8  10  3500 ns/op
BenchmarkJitter-8  10  11000 ns/op
`
	baseline, err := parseFile(writeTemp(t, noisyBase))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := parseFile(writeTemp(t, noisyNew))
	if err != nil {
		t.Fatal(err)
	}
	if report, failed := compare(baseline, fresh, 0.30); failed {
		t.Errorf("statistically insignificant noise failed the gate:\n%s", report)
	}
}

// TestCompareMissingBenchmarkFails: a baseline benchmark the new run
// lacks — one that crashed, say — fails the gate; a benchmark new to
// the run is listed and passes.
func TestCompareMissingBenchmarkFails(t *testing.T) {
	baseline, _ := parseFile(writeTemp(t, baselineFixture))
	brandNew := "BenchmarkBrandNew-8  100000  10 ns/op  0 B/op  0 allocs/op\n"
	onlyOne, _ := parseFile(writeTemp(t, "BenchmarkChannelRoundTrip-8  100000  5000 ns/op  0 B/op  0 allocs/op\n"+brandNew))
	if report, failed := compare(baseline, onlyOne, 0.30); !failed || !strings.Contains(report, "MISSING from new run") {
		t.Errorf("a missing baseline benchmark passed the gate:\n%s", report)
	}
	all, _ := parseFile(writeTemp(t, baselineFixture+brandNew))
	if report, failed := compare(baseline, all, 0.30); failed || !strings.Contains(report, "new benchmark") {
		t.Errorf("a new benchmark failed the gate or went unlisted:\n%s", report)
	}
}

// TestCompareFloorRatio: the gate fails when the median x-floor of
// BenchmarkHotMuxGetHitOverFloor is above 2.0, whatever the baseline
// says, and passes at or below it; one high repetition moves no median.
func TestCompareFloorRatio(t *testing.T) {
	baseline, _ := parseFile(writeTemp(t, baselineFixture))
	run := func(ratios ...string) map[string]*sample {
		out := baselineFixture
		for _, r := range ratios {
			out += "BenchmarkHotMuxGetHitOverFloor-8  \t  50000\t     37000 ns/op\t  " + r + " x-floor\t    5456 B/op\t      12 allocs/op\n"
		}
		fresh, _ := parseFile(writeTemp(t, out))
		return fresh
	}
	if report, failed := compare(baseline, run("1.9", "2.0", "2.1"), 0.30); failed || !strings.Contains(report, "2.00x") {
		t.Errorf("a median ratio of 2.0 failed the gate or was not reported:\n%s", report)
	}
	if report, failed := compare(baseline, run("1.6", "1.7", "3.5"), 0.30); failed {
		t.Errorf("one high repetition failed the gate:\n%s", report)
	}
	report, failed := compare(baseline, run("1.9", "2.01", "2.1"), 0.30)
	if !failed || !strings.Contains(report, "socket floor") {
		t.Errorf("a median ratio of 2.01 passed the gate:\n%s", report)
	}
}
