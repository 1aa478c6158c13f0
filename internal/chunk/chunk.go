// Package chunk implements SPEED's sub-result deduplication layer:
// FastCDC-style content-defined chunking, per-chunk tag/key derivation
// over the mle machinery, and the sealed manifest that replaces a large
// result's stored value (ordered chunk references plus the
// whole-result length).
//
// Whole-result dedup shares bytes only between byte-identical results.
// Two near-identical computations — the same image at two crops, the
// same trace re-scanned with one new rule — share nothing even though
// their outputs overlap almost entirely. Content-defined chunking cuts
// results at positions chosen by a rolling hash of the content itself,
// so an insertion or deletion shifts only the chunks it touches and the
// overlapping remainder keeps identical chunk boundaries, identical
// chunk hashes, and therefore identical chunk tags across applications
// (convergence holds chunk-wise; see crypto.go).
//
// Determinism is a correctness requirement, not an optimisation: two
// independent runtimes only share chunks if they derive the same gear
// table, the same masks and the same boundaries. Everything here is a
// pure function of (Config, content) — no randomness, no process state.
package chunk

import (
	"fmt"
	"math/bits"
)

// Default chunking geometry. The averages follow the classic CDC
// storage-dedup sweet spot: small enough that an edited result re-uses
// most of its neighbourhood, large enough that per-chunk overheads
// (tags, dictionary entries, GCM tags) stay below a percent or two.
const (
	// DefaultMin is the minimum chunk size; the cut-point search skips
	// the first DefaultMin bytes entirely (FastCDC's sub-minimum skip).
	DefaultMin = 2 << 10
	// DefaultAvg is the target average chunk size (the normalization
	// point where the cut-point search switches from the hard to the
	// easy mask).
	DefaultAvg = 8 << 10
	// DefaultMax is the forced cut: no chunk exceeds it.
	DefaultMax = 64 << 10
	// DefaultSeed derives the default gear table. Every runtime and
	// store sharing chunks MUST use the same seed (and the same
	// min/avg/max): the gear table defines the boundaries, and only
	// identical boundaries make chunk tags converge across
	// applications.
	DefaultSeed = 0x5eedc0de9f3a7b41
)

// Config selects the chunking geometry and the gear-table seed. The
// zero value selects all defaults.
type Config struct {
	// Min, Avg and Max bound chunk sizes: every chunk except a short
	// final remainder is in [Min, Max], and Avg is the normalization
	// point of the two-mask FastCDC search. Zero selects the defaults.
	Min, Avg, Max int
	// Seed derives the 256-entry gear table deterministically
	// (SplitMix64). Zero selects DefaultSeed.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Min == 0 {
		c.Min = DefaultMin
	}
	if c.Avg == 0 {
		c.Avg = DefaultAvg
	}
	if c.Max == 0 {
		c.Max = DefaultMax
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// Chunker splits byte streams at content-defined boundaries. It is
// immutable after construction and safe for concurrent use.
type Chunker struct {
	min, avg, max int
	// maskS (small, hard: more bits) applies before the normalization
	// point, maskL (large, easy: fewer bits) after — FastCDC's
	// normalized chunking, which tightens the size distribution around
	// avg compared to a single mask. Both masks select high-order bits
	// of the gear hash, where every byte of the 64-byte rolling window
	// has diffused.
	maskS, maskL uint64
	gear         [256]uint64
}

// NewChunker validates cfg and builds the chunker.
func NewChunker(cfg Config) (*Chunker, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Min < 64:
		return nil, fmt.Errorf("chunk: Min %d below 64", cfg.Min)
	case cfg.Avg < 256:
		return nil, fmt.Errorf("chunk: Avg %d below 256", cfg.Avg)
	case cfg.Min > cfg.Avg:
		return nil, fmt.Errorf("chunk: Min %d exceeds Avg %d", cfg.Min, cfg.Avg)
	case cfg.Avg > cfg.Max:
		return nil, fmt.Errorf("chunk: Avg %d exceeds Max %d", cfg.Avg, cfg.Max)
	case cfg.Max > 1<<30:
		return nil, fmt.Errorf("chunk: Max %d exceeds 1GiB", cfg.Max)
	}
	c := &Chunker{min: cfg.Min, avg: cfg.Avg, max: cfg.Max}
	b := bits.Len(uint(cfg.Avg)) - 1 // floor(log2(avg))
	c.maskS = topBits(b + 2)
	c.maskL = topBits(b - 2)
	fillGear(&c.gear, cfg.Seed)
	return c, nil
}

// topBits builds a mask of the n highest bits of a uint64.
func topBits(n int) uint64 {
	if n <= 0 {
		n = 1
	}
	if n > 63 {
		n = 63
	}
	return ((uint64(1) << n) - 1) << (64 - n)
}

// fillGear derives the gear table from the seed with SplitMix64, the
// standard statistically-uniform seed expander.
func fillGear(t *[256]uint64, seed uint64) {
	s := seed
	for i := range t {
		s += 0x9e3779b97f4a7c15
		z := s
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		t[i] = z
	}
}

// cut returns the length of the first chunk of data: the first
// content-defined boundary in (min, max], or len(data) when data is
// shorter than max and contains no boundary (the final remainder). The
// decision depends only on the prefix it returns, so a boundary found
// here is final no matter how much data follows.
func (c *Chunker) cut(data []byte) int {
	n := len(data)
	if n <= c.min {
		return n
	}
	if n > c.max {
		n = c.max
	}
	normal := c.avg
	if normal > n {
		normal = n
	}
	var h uint64
	i := c.min
	for ; i < normal; i++ {
		h = h<<1 + c.gear[data[i]]
		if h&c.maskS == 0 {
			return i + 1
		}
	}
	for ; i < n; i++ {
		h = h<<1 + c.gear[data[i]]
		if h&c.maskL == 0 {
			return i + 1
		}
	}
	return n
}

// AppendSplit splits data into content-defined chunks, appending them
// to dst and returning the extended slice. The chunks are zero-copy
// subslices of data — concatenated in order they are exactly data.
// Reusing dst across calls makes steady-state splitting allocation-free.
func (c *Chunker) AppendSplit(dst [][]byte, data []byte) [][]byte {
	for len(data) > 0 {
		n := c.cut(data)
		dst = append(dst, data[:n:n])
		data = data[n:]
	}
	return dst
}

// Split is AppendSplit into a fresh slice.
func (c *Chunker) Split(data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	return c.AppendSplit(make([][]byte, 0, len(data)/c.avg+1), data)
}
