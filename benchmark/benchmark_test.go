package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smoke is the sizing of the fast tests: 0.2% of the frozen op counts.
const smokeSeconds = 0.002 * refSeconds

// TestMain lets the test binary serve as its own idler, as the
// benchmark binary does, when run() starts idlers.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == idleSpinArg {
		idleSpin()
	}
	os.Exit(m.Run())
}

func smokeSizing(traced bool) sizing { return sizingFor(smokeSeconds, traced) }

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a := w.gen(w, 7, smokeSizing(false))
		b := w.gen(w, 7, smokeSizing(false))
		c := w.gen(w, 8, smokeSizing(false))
		// Functions do not compare; everything else must be identical,
		// byte for byte, schedules included.
		a.compute, b.compute, c.compute = nil, nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if reflect.DeepEqual(a.inputs, c.inputs) {
			t.Errorf("%s: different seeds gave the same inputs", w.name)
		}
		if w.name != "miss_durable" && reflect.DeepEqual(a.main, c.main) {
			// miss_durable's order is fixed: every input is new.
			t.Errorf("%s: different seeds gave the same call order", w.name)
		}
		if len(a.main.ids) != len(a.main.hit) || len(a.main.reqs) == 0 {
			t.Errorf("%s: malformed stream", w.name)
		}
	}
}

// busyWait spins for ns nanoseconds.
func busyWait(ns int64) {
	for start := time.Now(); int64(time.Since(start)) < ns; {
	}
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f ± %.2f", what, got, want, tol)
	}
}

func TestZipfDeckShares(t *testing.T) {
	const n, ranks = 50000, 2048
	for _, s := range []float64{0.99, 1.0, 1.1} {
		deck := zipfDeck(newRand(1, 1), n, ranks, s)
		if len(deck) != n {
			t.Fatalf("s=%v: %d draws, want %d", s, len(deck), n)
		}
		var norm float64
		for r := 1; r <= ranks; r++ {
			norm += 1 / math.Pow(float64(r), s)
		}
		for _, top := range []int{1, 10, 100, 1000} {
			var want float64
			for r := 1; r <= top; r++ {
				want += 1 / math.Pow(float64(r), s) / norm
			}
			got := 0
			for _, r := range deck {
				if r < top {
					got++
				}
			}
			within(t, "share of top ranks", float64(got)/n, want, 0.02)
		}
	}
}

func TestClusterMixShares(t *testing.T) {
	w := workloadByName("cluster_mix")
	st := w.gen(w, 3, sizing{ops: 0.2, pool: 1})
	var hits, batched, calls float64
	sizes := map[int]float64{}
	for _, rq := range st.main.reqs {
		if rq.n == clusterBatch {
			batched++
		} else if rq.n != 1 {
			t.Fatalf("request of %d calls", rq.n)
		}
	}
	for i, id := range st.main.ids {
		calls++
		if st.main.hit[i] {
			hits++
			if int(id) >= w.pool {
				t.Fatalf("call %d predicted a hit on new input %d", i, id)
			}
		} else {
			sizes[inputSize(st.inputs[id])]++
		}
	}
	within(t, "hit share", hits/calls, 0.70, 0.02)
	within(t, "batch share of requests", batched/float64(len(st.main.reqs)), 0.125, 0.02)
	misses := calls - hits
	within(t, "1 KiB share of new results", sizes[1*kib]/misses, 0.50, 0.02)
	within(t, "8 KiB share of new results", sizes[8*kib]/misses, 0.35, 0.02)
	within(t, "64 KiB share of new results", sizes[64*kib]/misses, 0.15, 0.02)

	// The schedule is increasing and spans exactly requests/rate.
	last := int64(0)
	for _, rq := range st.main.reqs {
		if rq.due < last {
			t.Fatal("schedule goes backwards")
		}
		last = rq.due
	}
	within(t, "schedule length in s", float64(last)/1e9, float64(len(st.main.reqs))/w.rate, 1e-6)

	var pool [3]float64
	for id := 0; id < w.pool; id++ {
		for c, size := range clusterSizes {
			if clusterPoolSize(uint32(id)) == size {
				pool[c]++
			}
		}
	}
	within(t, "1 KiB share of the pool", pool[0]/float64(w.pool), 0.50, 0.02)
	within(t, "64 KiB share of the pool", pool[2]/float64(w.pool), 0.15, 0.02)
}

func TestOtherHitShares(t *testing.T) {
	share := func(seg segment) float64 {
		n := 0.0
		for _, h := range seg.hit {
			if h {
				n++
			}
		}
		return n / float64(len(seg.hit))
	}
	w := workloadByName("hit_small")
	if got := share(w.gen(w, 1, smokeSizing(false)).main); got != 1 {
		t.Errorf("hit_small: hit share %v, want 1", got)
	}
	w = workloadByName("miss_durable")
	if got := share(w.gen(w, 1, smokeSizing(false)).main); got != 0 {
		t.Errorf("miss_durable: hit share %v, want 0", got)
	}
	// overlap_chunked: the first touch of an id is a miss, every later
	// touch a hit.
	w = workloadByName("overlap_chunked")
	st := w.gen(w, 1, sizing{ops: 0.2, pool: 1})
	seen := map[uint32]bool{}
	for i, id := range st.main.ids {
		if st.main.hit[i] != seen[id] {
			t.Fatalf("overlap_chunked: call %d on id %d predicted hit=%v", i, id, st.main.hit[i])
		}
		seen[id] = true
	}
}

func TestOverlapCorpus(t *testing.T) {
	w := workloadByName("overlap_chunked")
	st := w.gen(w, 5, smokeSizing(false))
	c := newCorpus(5, overlapFamilies+overlapWarmFamilies)
	for _, id := range []uint32{0, 33, 1000, 2047} {
		got, err := st.compute(st.inputs[id])
		if err != nil {
			t.Fatal(err)
		}
		again, _ := st.compute(st.inputs[id])
		if !bytes.Equal(got, again) {
			t.Fatalf("variant %d is not deterministic", id)
		}
		base := c.bases[id/overlapVariants]
		if len(got) != overlapResult || len(base) != overlapResult {
			t.Fatalf("variant %d: %d bytes", id, len(got))
		}
		same := 0
		for i := range got {
			if got[i] == base[i] {
				same++
			}
		}
		within(t, "share of bytes a variant keeps from its base", float64(same)/overlapResult, 0.90, 0.02)
	}
	a, _ := st.compute(st.inputs[1])
	b, _ := st.compute(st.inputs[2])
	if bytes.Equal(a, b) {
		t.Error("two variants of one family are identical")
	}
}

func TestExpand(t *testing.T) {
	in := makeInputs("t", 1, 2, func(id uint32) int { return 100 + int(id) })
	a, err := expand(in[0])
	if err != nil || len(a) != 100 {
		t.Fatalf("expand: %d bytes, %v", len(a), err)
	}
	b, _ := expand(in[1])
	if len(b) != 101 || bytes.Equal(a, b[:100]) {
		t.Error("expand does not depend on its input")
	}
	if _, err := expand([]byte("short")); err == nil {
		t.Error("expand accepted a malformed input")
	}
}

func TestSliceMedianEstimator(t *testing.T) {
	// Ten slices of 100 calls. Slice k's latencies are 1..100 µs scaled
	// by (k+1), except that one slice is a 50× stall.
	var lat []int64
	for k := 0; k < numSlices; k++ {
		scale := int64(k + 1)
		if k == 3 {
			scale = 50
		}
		for i := int64(1); i <= 100; i++ {
			lat = append(lat, i*scale*1000)
		}
	}
	// Slice p50s are 50·{1,2,3,50,5,...,10}: the median of those is
	// 50·6.5 whether or not the stalled slice is there.
	within(t, "slice-median p50", sliceMedian(lat, 0.5), 50*6.5, 1e-9)
	within(t, "slice-median p99", sliceMedian(lat, 0.99), 99*6.5, 1e-9)
	if got := slicePercentiles(lat, 0.99)[3]; got != 99*50 {
		t.Errorf("stalled slice p99 = %v, want %v", got, 99*50)
	}
	if got := percentile([]int64{10, 20, 30, 40}, 0.5); got != 20 {
		t.Errorf("nearest-rank median of 4 = %d, want 20", got)
	}
	if got := percentile([]int64{10, 20, 30, 40}, 1); got != 40 {
		t.Errorf("p100 = %d, want 40", got)
	}
	if b := sliceBounds(25); b[0] != 0 || b[numSlices] != 25 {
		t.Errorf("slice bounds %v do not cover 25 calls", b)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	within(t, "quartile spread of 1..10", quartileSpread(vals), (8.25-2.75)/5.5, 1e-12)
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	within(t, "quartile spread of 5 values", quartileSpread([]float64{1, 2, 4, 8, 16}), (12.0-1.5)/4, 1e-12)
}

func TestDueTimeLatency(t *testing.T) {
	// Open loop: due at 100, sent 30 late, took 50 to serve.
	if lat, service := callLatency(true, 100, 130, 180); lat != 80 || service != 50 {
		t.Errorf("open loop: lat %d service %d, want 80 50", lat, service)
	}
	if lat, service := callLatency(false, 0, 130, 180); lat != 50 || service != 50 {
		t.Errorf("closed loop: lat %d service %d, want 50 50", lat, service)
	}

	// The generator itself, on the compute-only rung: a schedule of two
	// single calls and one batch, the first request held up by 20 ms of
	// compute so the second, due 1 ms in, is sent late.
	w := &workload{name: "synthetic", rate: 1000, dispatchers: 1}
	st := &stream{inputs: makeInputs("synthetic", 1, 10, func(uint32) int { return 64 })}
	st.compute = func(in []byte) ([]byte, error) {
		if inputID(in) == 0 {
			busyWait(20e6)
		}
		return expand(in)
	}
	st.main.add(0, false, 0)
	st.main.add(1e6, false, 1)
	st.main.add(2e6, false, 2, 3, 4)
	d, err := deploy(w, st, rungCompute, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	win := measure(d, &st.main, nil)
	if win.failed != 0 || win.calls != 5 {
		t.Fatalf("%d calls, %d failed", win.calls, win.failed)
	}
	if win.late[1] < 15e6 || win.lat[1] < win.service[1]+15e6 {
		t.Errorf("request 1: late %d lat %d service %d; the stall ahead of it was not counted", win.late[1], win.lat[1], win.service[1])
	}
	if win.lat[2] != win.lat[3] || win.lat[3] != win.lat[4] {
		t.Errorf("calls of one batch have latencies %v", win.lat[2:5])
	}
	if win.backlog[numSlices*1/3] < 1 {
		t.Errorf("backlog %v: the request waiting behind the stall was not seen", win.backlog)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the op counts are sized for %d", doc.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q, want %q with the same why", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if g := doc.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := doc.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, g, d)
		}
	}
}

func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
		t.Errorf("%s: %d of %d operations failed", rep.Workload, rep.Result.Failed, rep.Result.Attempted)
	}
	if len(rep.Result.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rep.Workload, len(rep.Result.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Result.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v), want unit %q", rep.Workload, d.name, m, ok, d.unit)
		}
	}
	if len(rep.Missing) > 0 {
		t.Errorf("%s: telemetry series not found: %v", rep.Workload, rep.Missing)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at 0.2% of
// their size and checks that every metric BENCHMARK.json names comes
// out with its unit and that no operation fails.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep, err := runUntraced(w, 1, smokeSeconds, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, endToEnd)
			for _, d := range endToEnd {
				if rep.Result.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, rep.Result.Metrics[d.name].Value)
				}
			}
			if len(rep.SetupSeconds) != setupRepeats {
				t.Errorf("%d set-ups, want %d", len(rep.SetupSeconds), setupRepeats)
			}

			out := t.TempDir()
			rep, err = runTraced(w, 1, smokeSeconds, t.TempDir(), out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, perLayer)
			spans, err := os.ReadFile(out + "/trace-" + w.name + ".jsonl")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{spanRequest, spanCompute, "mle.tag", "wire.roundtrip", `"pass":"probes"`, `"pass":"remote"`} {
				if !bytes.Contains(spans, []byte(name)) {
					t.Errorf("%s: no %s span in the trace", w.name, name)
				}
			}
			reused, computed := rep.Result.Metrics["dedup.reused"].Value, rep.Result.Metrics["dedup.computed"].Value
			calls := float64(rep.Ops["calls"])
			switch w.name {
			case "hit_small":
				if reused != calls || computed != 0 {
					t.Errorf("hit_small: reused %v computed %v of %v calls", reused, computed, calls)
				}
			case "miss_durable":
				if computed != calls || reused != 0 {
					t.Errorf("miss_durable: reused %v computed %v of %v calls", reused, computed, calls)
				}
				if rep.Result.Metrics["logengine.recovered_frac"].Value != 1 {
					t.Error("miss_durable: results lost in crash recovery")
				}
			}
		})
	}
}

// TestCommandLine drives the flags the contract passes and checks the
// shape of the last line.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "hit_small", "--seed", "3", "--seconds", "0.04", "--trace", "0", "--data-dir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line has keys %v", last)
	}
	if !strings.HasPrefix(lines[len(lines)-2], "report: ") {
		t.Error("the line before the result is not the report document")
	}
	for _, args := range [][]string{{"--workload", "nope"}, {"--trace", "2"}, {"--seconds", "0"}, {"stray"}} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
