package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the number of logarithmic latency buckets. Bucket b
// holds observations whose nanosecond value has bit length b, i.e.
// [2^(b-1), 2^b-1] (bucket 0 holds exactly 0ns). 40 buckets span
// 1ns .. ~9 minutes; anything slower clamps into the last bucket.
const numBuckets = 40

// Histogram is a log-bucketed latency histogram. Observations are two
// atomic adds — no locks, no allocation — so it can sit on the Execute
// hot path. Quantiles are estimated at snapshot time by linear
// interpolation within the matching power-of-two bucket, giving a
// worst-case relative error of one bucket width (×2), which is ample
// for telling a 5µs dedup hit from a 5ms recomputation.
type Histogram struct {
	metricMeta
	counts    [numBuckets]atomic.Int64
	sumNS     atomic.Int64
	exemplars [numBuckets]atomic.Pointer[string]
}

// Observe records one duration. Negative durations (clock steps) are
// recorded as zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketOf(d)].Add(1)
	h.sumNS.Add(clampNS(d))
}

// ObserveExemplar records one duration and remembers traceID as the
// bucket's exemplar, linking the latency bucket to a concrete sampled
// trace. Call it only on the sampled path: unlike Observe it stores a
// pointer, so it is not allocation-free.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	if h == nil {
		return
	}
	b := bucketOf(d)
	h.counts[b].Add(1)
	h.sumNS.Add(clampNS(d))
	if traceID != "" {
		h.exemplars[b].Store(&traceID)
	}
}

func clampNS(d time.Duration) int64 {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	return ns
}

func bucketOf(d time.Duration) int {
	b := bits.Len64(uint64(clampNS(d)))
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// bucketUpperNS is the inclusive nanosecond upper bound of bucket b
// (the last bucket is unbounded).
func bucketUpperNS(b int) int64 {
	return int64(1)<<uint(b) - 1
}

// HistogramSnapshot is a consistent point-in-time view of a histogram.
// Count always equals the sum of Buckets, because it is derived from
// one pass over the bucket array rather than read from a separate
// counter racing with it.
type HistogramSnapshot struct {
	Name       string        `json:"name"`
	Count      int64         `json:"count"`
	SumSeconds float64       `json:"sum_seconds"`
	P50        float64       `json:"p50_seconds"`
	P95        float64       `json:"p95_seconds"`
	P99        float64       `json:"p99_seconds"`
	Buckets    []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative histogram bucket: the number of
// observations at or below LE seconds (LE < 0 encodes +Inf). Exemplar,
// when set, is the trace ID of the last sampled observation that
// landed in this bucket (not cumulative), so a slow bucket links
// directly to a concrete /debug/trace?id= lookup.
type BucketCount struct {
	LE       float64 `json:"le_seconds"`
	Count    int64   `json:"count"`
	Exemplar string  `json:"exemplar,omitempty"`
}

// Snapshot captures the histogram's buckets, count, sum and estimated
// p50/p95/p99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [numBuckets]int64
	var total int64
	for b := range counts {
		counts[b] = h.counts[b].Load()
		total += counts[b]
	}
	s := HistogramSnapshot{
		Name:       h.full,
		Count:      total,
		SumSeconds: float64(h.sumNS.Load()) / 1e9,
		P50:        quantile(counts[:], total, 0.50),
		P95:        quantile(counts[:], total, 0.95),
		P99:        quantile(counts[:], total, 0.99),
	}
	// Cumulative buckets, trimmed past the last occupied one; +Inf is
	// implied by Count.
	last := -1
	for b := numBuckets - 1; b >= 0; b-- {
		if counts[b] > 0 {
			last = b
			break
		}
	}
	var cum int64
	for b := 0; b <= last; b++ {
		cum += counts[b]
		le := float64(bucketUpperNS(b)) / 1e9
		if b == numBuckets-1 {
			le = -1 // +Inf
		}
		bc := BucketCount{LE: le, Count: cum}
		if ex := h.exemplars[b].Load(); ex != nil {
			bc.Exemplar = *ex
		}
		s.Buckets = append(s.Buckets, bc)
	}
	return s
}

// Exemplar returns the trace ID last recorded (via ObserveExemplar)
// for the bucket containing d, or "" when none has been recorded.
func (h *Histogram) Exemplar(d time.Duration) string {
	if h == nil {
		return ""
	}
	if ex := h.exemplars[bucketOf(d)].Load(); ex != nil {
		return *ex
	}
	return ""
}

// quantile estimates the q-quantile in seconds from a bucket-count
// array by locating the target rank's bucket and interpolating
// linearly inside it.
func quantile(counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, c := range counts {
		if cum+c < target {
			cum += c
			continue
		}
		var lower int64
		if b > 0 {
			lower = int64(1) << uint(b-1)
		}
		upper := bucketUpperNS(b)
		if c <= 1 {
			return float64(lower) / 1e9
		}
		frac := float64(target-cum-1) / float64(c-1)
		return (float64(lower) + frac*float64(upper-lower)) / 1e9
	}
	return float64(bucketUpperNS(numBuckets-1)) / 1e9
}
