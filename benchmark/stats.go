package main

import "slices"

// numSlices is how many equal-count slices a measured window is cut
// into. Timing percentiles are taken per slice and the median over the
// slices is reported: the machine dips for a second or two at a time,
// which lands in one slice and leaves the median slice alone.
const numSlices = 10

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank rule. sorted must be ascending and non-empty.
func percentile(sorted []int64, q float64) int64 {
	i := int(q*float64(len(sorted))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value of vals (mean of the two middle
// values for an even count) without modifying vals; 0 for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sliceBounds cuts n items into numSlices contiguous ranges whose sizes
// differ by at most one; range i is [b[i], b[i+1]).
func sliceBounds(n int) []int {
	b := make([]int, numSlices+1)
	for i := range b {
		b[i] = n * i / numSlices
	}
	return b
}

// slicePercentiles returns each slice's q-quantile of lat (nanoseconds,
// one entry per call in issue order) in microseconds.
func slicePercentiles(lat []int64, q float64) []float64 {
	b := sliceBounds(len(lat))
	out := make([]float64, 0, numSlices)
	for i := 0; i < numSlices; i++ {
		if b[i+1] == b[i] {
			continue
		}
		s := append([]int64(nil), lat[b[i]:b[i+1]]...)
		slices.Sort(s)
		out = append(out, float64(percentile(s, q))/1e3)
	}
	return out
}

// sliceMedian is the estimator behind latency_p50_us: the median over
// the slices of each slice's q-quantile, in µs.
func sliceMedian(lat []int64, q float64) float64 {
	return median(slicePercentiles(lat, q))
}

// quantileOf returns the q-quantile of unsorted nanosecond samples in
// µs; 0 for no samples.
func quantileOf(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	slices.Sort(s)
	return float64(percentile(s, q)) / 1e3
}

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile of vals, as Python's
// statistics.quantiles(vals, n=4) (exclusive method) gives them, as a
// share of their median.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	slices.Sort(s)
	q := func(k int) float64 {
		j, delta := k*(n+1)/4, k*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	d := (q(3) - q(1)) / m
	if d < 0 {
		d = -d
	}
	return d
}
