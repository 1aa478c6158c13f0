package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runNoise is the benchmark's check of itself: two interleaved sets, A
// and B, of k full untraced runs of the same code, every run on its own
// seed (A gets seed, seed+2, ...; B gets seed+1, seed+3, ...). Each run
// is a fresh process of this binary, as the driver's runs are. For each
// workload and end-to-end metric it prints both set medians, how far B's
// median is from A's, the quartile spread of all 2k runs (the contract's
// steadiness measure) and the metric's bound; it returns non-zero if a
// disagreement or, for any metric but setup_s, a spread exceeds the
// bound.
func runNoise(ws []*workload, seed uint64, seconds float64, k int, dataRoot string, out, errOut io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(errOut, "benchmark:", err)
		return 1
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < 2*k; i++ {
		for _, w := range ws {
			cmd := exec.Command(self,
				"--workload", w.name,
				"--seed", strconv.FormatUint(seed+uint64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"--trace", "0", "--data-dir", dataRoot)
			cmd.Stderr = errOut
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(errOut, "benchmark: %s seed %d: %v\n", w.name, seed+uint64(i), err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
				fmt.Fprintf(errOut, "benchmark: %s seed %d: bad result line %q (%v)\n", w.name, seed+uint64(i), lines[len(lines)-1], err)
				return 1
			}
			fmt.Fprintf(out, "run %d/%d set %c %s seed %d: %d calls/s\n", i+1, 2*k, 'A'+i%2, w.name, seed+uint64(i), int(res.Metrics["calls_per_s"].Value))
			for name, m := range res.Metrics {
				sets[i%2][key{w.name, name}] = append(sets[i%2][key{w.name, name}], m.Value)
			}
		}
	}
	code := 0
	fmt.Fprintf(out, "\n%-16s %-30s %14s %14s %9s %9s %7s\n", "workload", "metric", "median A", "median B", "disagree", "spread", "bound")
	for _, w := range ws {
		for _, def := range endToEnd {
			a, b := sets[0][key{w.name, def.name}], sets[1][key{w.name, def.name}]
			ma, mb := median(a), median(b)
			// Either set may play the parent: the disagreement is how far
			// the worse median lies from the better one.
			disagree := (mb - ma) / ma
			if disagree < 0 {
				disagree = (ma - mb) / mb
			}
			spread := quartileSpread(append(append([]float64(nil), a...), b...))
			verdict := ""
			if disagree > def.bound || (def.name != "setup_s" && spread > def.bound) {
				verdict, code = "  EXCEEDS BOUND", 1
			}
			fmt.Fprintf(out, "%-16s %-30s %14.4f %14.4f %8.2f%% %8.2f%% %6.0f%%%s\n",
				w.name, def.name, ma, mb, 100*disagree, 100*spread, 100*def.bound, verdict)
		}
	}
	return code
}
