package mapreduce

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func wordCountNaive(docs []string) map[string]int {
	out := make(map[string]int)
	for _, d := range docs {
		for _, w := range Tokenize(d) {
			out[w]++
		}
	}
	return out
}

func TestRunWordCount(t *testing.T) {
	docs := []string{
		"the quick brown fox",
		"the lazy dog",
		"The Quick DOG",
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := BagOfWords(docs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := wordCountNaive(docs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: BagOfWords = %v, want %v", workers, got, want)
		}
	}
}

func TestRunEmptyInputs(t *testing.T) {
	got, err := BagOfWords(nil, 4)
	if err != nil {
		t.Fatalf("BagOfWords: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("BagOfWords(nil) = %v, want empty", got)
	}
}

func TestRunValidatesCallbacks(t *testing.T) {
	if _, err := Run[int, string, int, int](nil, nil, nil, Config[int]{}); err == nil {
		t.Error("Run accepted nil mapper/reducer")
	}
}

func TestRunMapperErrorPropagates(t *testing.T) {
	wantErr := errors.New("map failure")
	_, err := Run(
		[]int{1, 2, 3},
		func(in int, emit func(string, int)) error {
			if in == 2 {
				return wantErr
			}
			emit("k", in)
			return nil
		},
		func(k string, vs []int) (int, error) { return 0, nil },
		Config[int]{Workers: 2},
	)
	if !errors.Is(err, wantErr) {
		t.Errorf("Run = %v, want %v", err, wantErr)
	}
}

func TestRunReducerErrorPropagates(t *testing.T) {
	wantErr := errors.New("reduce failure")
	_, err := Run(
		[]int{1, 2, 3},
		func(in int, emit func(string, int)) error {
			emit("k", in)
			return nil
		},
		func(k string, vs []int) (int, error) { return 0, wantErr },
		Config[int]{Workers: 2},
	)
	if !errors.Is(err, wantErr) {
		t.Errorf("Run = %v, want %v", err, wantErr)
	}
}

func TestRunWithoutCombiner(t *testing.T) {
	// Without a combiner every emitted value must reach the reducer.
	got, err := Run(
		[]string{"a a a", "a a"},
		func(in string, emit func(string, int)) error {
			for _, w := range strings.Fields(in) {
				emit(w, 1)
			}
			return nil
		},
		func(k string, vs []int) (int, error) { return len(vs), nil },
		Config[int]{Workers: 2},
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got["a"] != 5 {
		t.Errorf("reducer saw %d values, want 5", got["a"])
	}
}

func TestRunCombinerReducesShuffleVolume(t *testing.T) {
	// With a sum combiner the reducer sees at most one value per key
	// per worker.
	maxLen := 0
	_, err := Run(
		[]string{"a a a a", "a a a", "a a"},
		func(in string, emit func(string, int)) error {
			for _, w := range strings.Fields(in) {
				emit(w, 1)
			}
			return nil
		},
		func(k string, vs []int) (int, error) {
			if len(vs) > maxLen {
				maxLen = len(vs)
			}
			total := 0
			for _, v := range vs {
				total += v
			}
			return total, nil
		},
		Config[int]{Workers: 3, Combine: func(a, b int) int { return a + b }},
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxLen > 3 {
		t.Errorf("reducer saw %d values for one key, want <= workers (3)", maxLen)
	}
}

func TestRunGenericTypes(t *testing.T) {
	// Keys and outputs of distinct non-string types.
	type stat struct{ Sum, N int }
	got, err := Run(
		[]int{1, 2, 3, 4, 5, 6},
		func(in int, emit func(bool, int)) error {
			emit(in%2 == 0, in)
			return nil
		},
		func(even bool, vs []int) (stat, error) {
			s := stat{N: len(vs)}
			for _, v := range vs {
				s.Sum += v
			}
			return s, nil
		},
		Config[int]{Workers: 2},
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[true] != (stat{Sum: 12, N: 3}) || got[false] != (stat{Sum: 9, N: 3}) {
		t.Errorf("Run = %v", got)
	}
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"foo  bar\tbaz\nqux", []string{"foo", "bar", "baz", "qux"}},
		{"abc123 DEF", []string{"abc123", "def"}},
		{"--- ***", nil},
		{"trailing word", []string{"trailing", "word"}},
		{"word", []string{"word"}},
	}
	for _, tt := range tests {
		got := Tokenize(tt.in)
		if len(got) == 0 && len(tt.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// Property: parallel MapReduce word count equals the naive sequential
// count for arbitrary documents and worker counts.
func TestQuickBagOfWordsMatchesNaive(t *testing.T) {
	prop := func(docs []string, workers uint8) bool {
		w := int(workers%8) + 1
		got, err := BagOfWords(docs, w)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, wordCountNaive(docs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCountsCodecRoundTrip(t *testing.T) {
	cases := []map[string]int{
		{},
		{"a": 1},
		{"hello": 3, "world": 7, "zz": 1 << 40},
	}
	for _, counts := range cases {
		got, err := DecodeCounts(EncodeCounts(counts))
		if err != nil {
			t.Fatalf("DecodeCounts: %v", err)
		}
		if len(got) != len(counts) {
			t.Errorf("round trip %v = %v", counts, got)
			continue
		}
		for k, v := range counts {
			if got[k] != v {
				t.Errorf("round trip %v = %v", counts, got)
				break
			}
		}
	}
}

func TestCountsCodecDeterministic(t *testing.T) {
	a := EncodeCounts(map[string]int{"x": 1, "y": 2, "z": 3})
	b := EncodeCounts(map[string]int{"z": 3, "y": 2, "x": 1})
	if !reflect.DeepEqual(a, b) {
		t.Error("EncodeCounts is not canonical")
	}
}

// TestCountsCodecGolden pins EncodeCounts' exact bytes: the encoding is
// the deduplicable result, so a changed byte changes every BoW tag.
func TestCountsCodecGolden(t *testing.T) {
	got := EncodeCounts(map[string]int{"bc": 2, "a": 1})
	want := []byte{
		0, 0, 0, 2, // word count
		0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 2, 'b', 'c', 0, 0, 0, 0, 0, 0, 0, 2,
	}
	if !bytes.Equal(got, want) {
		t.Errorf("EncodeCounts = %x, want %x", got, want)
	}
	if got := EncodeCounts(nil); !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Errorf("EncodeCounts(nil) = %x, want 00000000", got)
	}
}

func TestCountsCodecRejectsMalformed(t *testing.T) {
	enc := EncodeCounts(map[string]int{"abc": 5})
	for i, bad := range [][]byte{nil, {1}, enc[:len(enc)-2], append(append([]byte{}, enc...), 0)} {
		if _, err := DecodeCounts(bad); err == nil {
			t.Errorf("case %d: DecodeCounts accepted malformed input", i)
		}
	}
}

// Property: the counts codec round-trips arbitrary maps.
func TestQuickCountsCodec(t *testing.T) {
	prop := func(m map[string]uint16) bool {
		counts := make(map[string]int, len(m))
		for k, v := range m {
			counts[k] = int(v)
		}
		got, err := DecodeCounts(EncodeCounts(counts))
		return err == nil && reflect.DeepEqual(got, counts)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
