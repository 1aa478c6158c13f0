package bench

import (
	"strings"
	"testing"
)

func TestTable1ShapesHold(t *testing.T) {
	rows, err := Table1([]int{1 << 10, 64 << 10}, 3)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	small, large := rows[0], rows[1]
	// Hash-based ops scale with input size.
	if large.TagGenMS <= small.TagGenMS {
		t.Errorf("TagGen not increasing with size: %v vs %v", small.TagGenMS, large.TagGenMS)
	}
	if large.KeyGenMS <= small.KeyGenMS {
		t.Errorf("KeyGen not increasing with size: %v vs %v", small.KeyGenMS, large.KeyGenMS)
	}
	// All values positive.
	for _, r := range rows {
		if r.TagGenMS <= 0 || r.KeyGenMS <= 0 || r.KeyRecMS <= 0 ||
			r.ResultEncMS <= 0 || r.ResultDecMS <= 0 {
			t.Errorf("non-positive timing in %+v", r)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "TagGen") || !strings.Contains(out, "64") {
		t.Errorf("RenderTable1 output malformed:\n%s", out)
	}
}

func TestFig5SIFTQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig5SIFT([]int{48}, 1)
	if err != nil {
		t.Fatalf("Fig5SIFT: %v", err)
	}
	r := rows[0]
	if r.BaselineMS <= 0 || r.InitMS <= 0 || r.SubsqMS <= 0 {
		t.Fatalf("non-positive timings: %+v", r)
	}
	// The defining shape: subsequent computation beats baseline.
	if r.SubsqMS >= r.BaselineMS {
		t.Errorf("no speedup: baseline %.3fms, subsq %.3fms", r.BaselineMS, r.SubsqMS)
	}
	out := RenderFig5("sift", rows)
	if !strings.Contains(out, "48x48") {
		t.Errorf("RenderFig5 output malformed:\n%s", out)
	}
}

func TestFig5CompressQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig5Compress([]int{64 << 10}, 1)
	if err != nil {
		t.Fatalf("Fig5Compress: %v", err)
	}
	if rows[0].SubsqMS >= rows[0].BaselineMS {
		t.Errorf("no speedup: %+v", rows[0])
	}
}

func TestFig5PatternQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig5Pattern([]int{8 << 10}, 200, 1)
	if err != nil {
		t.Fatalf("Fig5Pattern: %v", err)
	}
	if rows[0].SubsqMS >= rows[0].BaselineMS {
		t.Errorf("no speedup: %+v", rows[0])
	}
}

func TestFig5BoWQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Fig5BoW([]int{100}, 1)
	if err != nil {
		t.Fatalf("Fig5BoW: %v", err)
	}
	if rows[0].SubsqMS >= rows[0].BaselineMS {
		t.Errorf("no speedup: %+v", rows[0])
	}
}

func TestFig6SGXGapShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sizes := []int{1 << 10, 256 << 10}
	withSGX, err := Fig6(sizes, true, 5)
	if err != nil {
		t.Fatalf("Fig6 sgx: %v", err)
	}
	withoutSGX, err := Fig6(sizes, false, 5)
	if err != nil {
		t.Fatalf("Fig6 no-sgx: %v", err)
	}
	if out := RenderFig6(withSGX, withoutSGX); !strings.Contains(out, "GET sgx") {
		t.Errorf("RenderFig6 malformed:\n%s", out)
	}
	// Race instrumentation slows the native store path but not the
	// simulated SGX spin waits, so under -race the 1 KiB gap (2.3-3.8x)
	// sits on the thresholds below; only plain runs assert the ratios.
	if raceEnabled {
		t.Log("SGX/native ratios not asserted under -race")
		return
	}
	// At the small size the SGX penalty must be clearly visible (the
	// transition cost dominates): SGX at least 2x slower.
	if withSGX[0].Get100MS < 2*withoutSGX[0].Get100MS {
		t.Errorf("1KB: SGX GET penalty not visible (%.3f vs %.3f)",
			withSGX[0].Get100MS, withoutSGX[0].Get100MS)
	}
	// The relative gap shrinks as the result grows (the Fig. 6
	// finding). Timing noise at large sizes is real, so compare with a
	// 2x safety margin rather than strict monotonicity.
	gap := func(a, b Fig6Row) float64 {
		if b.Get100MS == 0 {
			return 0
		}
		return a.Get100MS / b.Get100MS
	}
	smallGap := gap(withSGX[0], withoutSGX[0])
	largeGap := gap(withSGX[1], withoutSGX[1])
	if largeGap > smallGap/2 {
		t.Errorf("SGX/native gap did not shrink with size: %v -> %v", smallGap, largeGap)
	}
}

func TestAblationScheme(t *testing.T) {
	rows, err := AblationScheme([]int{4 << 10}, 3)
	if err != nil {
		t.Fatalf("AblationScheme: %v", err)
	}
	r := rows[0]
	if r.RCEEncMS <= 0 || r.SingleEncMS <= 0 {
		t.Fatalf("non-positive timings: %+v", r)
	}
	// RCE does strictly more work (extra full-input hash); allow noise
	// but it must not be dramatically cheaper.
	if r.RCEEncMS < r.SingleEncMS/4 {
		t.Errorf("RCE enc implausibly cheaper than single-key: %+v", r)
	}
	if out := RenderAblationScheme(rows); !strings.Contains(out, "RCE enc") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestAblationOblivious(t *testing.T) {
	rows, err := AblationOblivious([]int{50, 2000}, 3)
	if err != nil {
		t.Fatalf("AblationOblivious: %v", err)
	}
	small, large := rows[0], rows[1]
	if small.PlainMS <= 0 || small.ObliviousMS <= 0 {
		t.Fatalf("non-positive timings: %+v", small)
	}
	// Oblivious lookups must get relatively slower as the dictionary
	// grows (linear scan), while plain lookups stay O(1)-ish.
	if large.ObliviousMS < 4*large.PlainMS {
		t.Errorf("oblivious scan at 2000 entries not clearly slower: %+v", large)
	}
	if out := RenderAblationOblivious(rows); !strings.Contains(out, "oblivious") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestAblationBlobPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := AblationBlobPlacement([]int{500, 4800}, 8<<10)
	if err != nil {
		t.Fatalf("AblationBlobPlacement: %v", err)
	}
	for _, r := range rows {
		if r.OutsidePageFaults != 0 {
			t.Errorf("outside-design paged at %d entries: %d faults (metadata should fit)",
				r.Entries, r.OutsidePageFaults)
		}
	}
	// At 4000 entries * 8KB = 32MB+ of blobs, the inside design must
	// either page or exhaust the 64MB EPC (recorded as -1).
	last := rows[len(rows)-1]
	if last.InsidePageFaults == 0 {
		t.Errorf("inside-design shows no paging pressure: %+v", last)
	}
	if out := RenderAblationBlobPlacement(rows, 8<<10); !strings.Contains(out, "Entries") {
		t.Errorf("render malformed:\n%s", out)
	}
}
