package mapreduce

import (
	"encoding/binary"
	"errors"
	"sort"
	"strings"
)

// The bag-of-words computation of Case 4: tokenize documents and count
// word occurrences with MapReduce, exactly the bow_mapper customization
// of the paper's Mapper function.

// Tokenize splits text into lowercase words: maximal runs of ASCII
// letters and digits.
func Tokenize(text string) []string {
	var words []string
	start := -1
	flush := func(end int) {
		if start >= 0 {
			words = append(words, strings.ToLower(text[start:end]))
			start = -1
		}
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		isWord := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if isWord {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(text))
	return words
}

// BagOfWords counts word occurrences across documents using the
// MapReduce engine with a sum combiner.
func BagOfWords(docs []string, workers int) (map[string]int, error) {
	return Run(
		docs,
		func(doc string, emit func(string, int)) error {
			for _, w := range Tokenize(doc) {
				emit(w, 1)
			}
			return nil
		},
		func(word string, counts []int) (int, error) {
			total := 0
			for _, c := range counts {
				total += c
			}
			return total, nil
		},
		Config[int]{Workers: workers, Combine: func(a, b int) int { return a + b }},
	)
}

// ErrMalformedCounts is returned when decoding invalid count bytes.
var ErrMalformedCounts = errors.New("mapreduce: malformed counts encoding")

// EncodeCounts serialises a word-count map deterministically (words
// sorted ascending), the deduplicable result representation: a
// big-endian uint32 word count, then per word a uint32 length, the
// word's bytes and its uint64 count.
func EncodeCounts(counts map[string]int) []byte {
	words := make([]string, 0, len(counts))
	size := 4
	for word := range counts {
		words = append(words, word)
		size += 4 + len(word) + 8
	}
	sort.Strings(words)
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(words)))
	for _, word := range words {
		out = binary.BigEndian.AppendUint32(out, uint32(len(word)))
		out = append(out, word...)
		out = binary.BigEndian.AppendUint64(out, uint64(counts[word]))
	}
	return out
}

// DecodeCounts parses the form produced by EncodeCounts.
func DecodeCounts(b []byte) (map[string]int, error) {
	if len(b) < 4 {
		return nil, ErrMalformedCounts
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	out := make(map[string]int, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, ErrMalformedCounts
		}
		wl := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if wl < 0 || len(b) < wl+8 {
			return nil, ErrMalformedCounts
		}
		word := string(b[:wl])
		b = b[wl:]
		out[word] = int(binary.BigEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) != 0 {
		return nil, ErrMalformedCounts
	}
	return out, nil
}
