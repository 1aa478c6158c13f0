// Package workload generates deterministic synthetic inputs for the
// four evaluation cases, replacing the paper's external datasets
// (Internet images, Boost text files, m57/4SICS packet traces with
// Snort rules, CommonCrawl web pages) which are not available in this
// environment. Generators are seeded, so every experiment is exactly
// reproducible, and a Zipf-based duplication controller produces input
// streams with a configurable repeat rate — the knob that computation
// deduplication exploits.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"speed/internal/pattern"
	"speed/internal/sift"
)

// Source is a seeded generator. It is NOT safe for concurrent use;
// create one per goroutine.
type Source struct {
	rng *rand.Rand
}

// New creates a Source with the given seed. Equal seeds produce equal
// streams.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Image produces a w×h grayscale test image with smooth blob and wave
// textures, the kind of structured content SIFT finds keypoints in.
func (s *Source) Image(w, h int) *sift.Gray {
	img := sift.NewGray(w, h)
	// Random Gaussian blobs.
	nBlobs := 3 + s.rng.Intn(6)
	type blob struct {
		cx, cy, sigma, amp float64
	}
	blobs := make([]blob, nBlobs)
	for i := range blobs {
		blobs[i] = blob{
			cx:    s.rng.Float64() * float64(w),
			cy:    s.rng.Float64() * float64(h),
			sigma: 2 + s.rng.Float64()*float64(min(w, h))/8,
			amp:   0.3 + s.rng.Float64()*0.7,
		}
	}
	// Two random plane waves for texture.
	fx1, fy1 := s.rng.Float64()*0.2, s.rng.Float64()*0.2
	fx2, fy2 := s.rng.Float64()*0.05, s.rng.Float64()*0.05
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.1 * math.Sin(fx1*float64(x)+fy1*float64(y))
			v += 0.05 * math.Sin(fx2*float64(x)*fy2*float64(y))
			for _, b := range blobs {
				dx, dy := float64(x)-b.cx, float64(y)-b.cy
				v += b.amp * math.Exp(-(dx*dx+dy*dy)/(2*b.sigma*b.sigma))
			}
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			img.Pix[y*w+x] = float32(v)
		}
	}
	return img
}

// vocabulary is the word pool for text and web-page generation.
var vocabulary = buildVocabulary()

func buildVocabulary() []string {
	rng := rand.New(rand.NewSource(42))
	words := make([]string, 2000)
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := range words {
		n := 2 + rng.Intn(9)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte(letters[rng.Intn(len(letters))])
		}
		words[i] = b.String()
	}
	return words
}

// zipfWord samples a vocabulary word with a Zipf-like rank
// distribution, matching natural-language frequency skew.
func (s *Source) zipfWord() string {
	// Inverse-CDF sampling of rank ~ 1/(r+1).
	u := s.rng.Float64()
	r := int(math.Pow(float64(len(vocabulary)), u)) - 1
	if r < 0 {
		r = 0
	} else if r >= len(vocabulary) {
		r = len(vocabulary) - 1
	}
	return vocabulary[r]
}

// Text produces approximately n bytes of word-like text with
// natural-language repetition (compressible, like the paper's Boost
// text files).
func (s *Source) Text(n int) []byte {
	var b strings.Builder
	b.Grow(n + 16)
	for b.Len() < n {
		b.WriteString(s.zipfWord())
		if s.rng.Intn(12) == 0 {
			b.WriteString(".\n")
		} else {
			b.WriteByte(' ')
		}
	}
	return []byte(b.String()[:n])
}

// WebPage produces a document of the given word count, the Case 4
// input unit (a CommonCrawl WET record analogue).
func (s *Source) WebPage(words int) string {
	var b strings.Builder
	for i := 0; i < words; i++ {
		b.WriteString(s.zipfWord())
		b.WriteByte(' ')
	}
	return b.String()
}

// SnortRules generates n detection rules in the style of the Snort
// community rule set: most rules carry 1-3 random content literals,
// a fraction add a PCRE confirmation, and some are case-insensitive.
func (s *Source) SnortRules(n int) []pattern.Rule {
	rules := make([]pattern.Rule, n)
	for i := range rules {
		nContents := 1 + s.rng.Intn(3)
		contents := make([][]byte, nContents)
		for j := range contents {
			contents[j] = s.ruleToken(5 + s.rng.Intn(12))
		}
		r := pattern.Rule{
			ID:       1_000_000 + i,
			Name:     fmt.Sprintf("SYNTH rule %d", i),
			Contents: contents,
			NoCase:   s.rng.Intn(4) == 0,
		}
		if s.rng.Intn(5) == 0 {
			// A simple confirming regex referencing one content.
			r.PCRE = fmt.Sprintf(`%s[a-z0-9]{0,8}`, string(contents[0]))
		}
		rules[i] = r
	}
	return rules
}

// ruleToken generates a content literal over a printable alphabet.
func (s *Source) ruleToken(n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_/-."
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[s.rng.Intn(len(alphabet))]
	}
	return b
}

// Packet produces an n-byte payload resembling network traffic: mostly
// HTTP-ish printable content. With hitRules non-empty, one randomly
// chosen rule's contents are embedded so the packet triggers it, which
// happens with probability hitProb.
func (s *Source) Packet(n int, hitRules []pattern.Rule, hitProb float64) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 /.:-_?=&%"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[s.rng.Intn(len(alphabet))]
	}
	copy(b, "GET /")
	if len(hitRules) > 0 && s.rng.Float64() < hitProb {
		r := hitRules[s.rng.Intn(len(hitRules))]
		off := 8
		for _, c := range r.Contents {
			if off+len(c) >= n {
				break
			}
			copy(b[off:], c)
			off += len(c) + 1 + s.rng.Intn(4)
		}
	}
	return b
}

// ZipfIndices produces a stream of n indices into a pool of `pool`
// distinct items with Zipf popularity skew (s=1.1), modelling the
// repeated inputs that cloud applications encounter (the same file
// scanned by many users, etc.). The duplication rate rises with
// n/pool.
func (s *Source) ZipfIndices(n, pool int) []int {
	if pool < 1 {
		pool = 1
	}
	z := rand.NewZipf(s.rng, 1.1, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// DupStream builds a stream of n items where each item is drawn from a
// pool of `pool` distinct values produced by gen(i). With Zipf skew,
// popular items repeat often — the deduplication opportunity.
func DupStream[T any](s *Source, n, pool int, gen func(i int) T) []T {
	distinct := make([]T, pool)
	for i := range distinct {
		distinct[i] = gen(i)
	}
	idx := s.ZipfIndices(n, pool)
	out := make([]T, n)
	for i, j := range idx {
		out[i] = distinct[j]
	}
	return out
}
