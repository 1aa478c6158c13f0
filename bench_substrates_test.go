// Micro-benchmarks for the four workload substrates themselves,
// independent of the deduplication machinery. These calibrate the
// baselines of Fig. 5 and document the raw performance of the
// from-scratch implementations.
package speed_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"speed/internal/compress"
	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mapreduce"
	"speed/internal/mle"
	"speed/internal/pattern"
	"speed/internal/sift"
	"speed/internal/store"
	"speed/internal/workload"
)

func BenchmarkSubstrateSIFTDetect(b *testing.B) {
	for _, size := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			img := workload.New(1).Image(size, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sift.Detect(img, sift.DefaultParams())
			}
		})
	}
}

func BenchmarkSubstrateCompress(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			text := workload.New(3).Text(size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = compress.Compress(text)
			}
		})
	}
}

func BenchmarkSubstrateDecompress(b *testing.B) {
	text := workload.New(4).Text(1 << 20)
	comp := compress.Compress(text)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compress.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstratePatternScanAC(b *testing.B) {
	src := workload.New(5)
	rules := src.SnortRules(3700)
	rs, err := pattern.CompileRules(rules)
	if err != nil {
		b.Fatal(err)
	}
	payload := src.Packet(64<<10, rules, 0.05)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rs.Scan(payload)
	}
}

func BenchmarkSubstratePatternScanSequential(b *testing.B) {
	src := workload.New(6)
	rules := src.SnortRules(3700)
	rs, err := pattern.CompileRules(rules)
	if err != nil {
		b.Fatal(err)
	}
	payload := src.Packet(2<<10, rules, 0.05)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rs.ScanSequential(payload)
	}
}

func BenchmarkSubstrateRegexMatch(b *testing.B) {
	re := pattern.MustCompileRegex(`admin[a-z0-9]{0,8}\.php`, true)
	payload := workload.New(7).Packet(64<<10, nil, 0)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = re.Match(payload)
	}
}

func BenchmarkSubstrateBoW(b *testing.B) {
	src := workload.New(8)
	var corpus strings.Builder
	for i := 0; i < 1000; i++ {
		corpus.WriteString(src.WebPage(200))
		corpus.WriteByte('\n')
	}
	docs := strings.Split(corpus.String(), "\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapreduce.BagOfWords(docs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCoalescing measures concurrent identical calls under
// in-flight coalescing: contention collapses to one computation per
// distinct input.
func BenchmarkAblationCoalescing(b *testing.B) {
	platform := enclave.NewPlatform(enclave.Config{})
	appEnc, err := platform.Create("app", []byte("app"))
	if err != nil {
		b.Fatal(err)
	}
	storeEnc, err := platform.Create("store", []byte("store"))
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := dedup.NewRuntime(dedup.Config{
		Enclave: appEnc,
		Client:  dedup.NewLocalClient(st, appEnc.Measurement()),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = rt.Close()
		st.Close()
	})
	// A moderately expensive computation over a rotating set of
	// inputs, hammered by parallel callers.
	compute := func(in []byte) ([]byte, error) {
		sum := byte(0)
		for i := 0; i < 1_000_000; i++ {
			sum += in[i%len(in)]
		}
		return []byte{sum}, nil
	}
	var id mle.FuncID
	id[0] = 7
	var counter int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := atomic.AddInt64(&counter, 1)
			input := []byte(fmt.Sprintf("in-%d", n/64)) // 64 callers share each input
			if _, _, err := rt.Execute(id, input, compute); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationObliviousGet quantifies the oblivious-lookup cost
// at a fixed dictionary size.
func BenchmarkAblationObliviousGet(b *testing.B) {
	for _, mode := range []struct {
		name      string
		oblivious bool
	}{{"Plain", false}, {"Oblivious", true}} {
		b.Run(mode.name, func(b *testing.B) {
			platform := enclave.NewPlatform(enclave.Config{})
			storeEnc, err := platform.Create("store", []byte("store"))
			if err != nil {
				b.Fatal(err)
			}
			st, err := store.New(store.Config{Enclave: storeEnc, Oblivious: mode.oblivious})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(st.Close)
			var owner enclave.Measurement
			const entries = 1000
			mkTag := func(i int) mle.Tag {
				var t mle.Tag
				t[0], t[1] = byte(i), byte(i>>8)
				return t
			}
			for i := 0; i < entries; i++ {
				if _, err := st.Put(owner, mkTag(i), mle.Sealed{Blob: []byte("x")}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, found, err := st.Get(mkTag(i % entries)); err != nil || !found {
					b.Fatal("miss")
				}
			}
		})
	}
}
