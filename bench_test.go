// Benchmarks regenerating the paper's evaluation with testing.B, one
// family per table/figure:
//
//	BenchmarkTableI*    — Table I, per cryptographic operation and size
//	BenchmarkFig5*      — Fig. 5(a)-(d), baseline / initial / subsequent
//	BenchmarkFig6*      — Fig. 6, ResultStore GET/PUT with and w/o SGX
//
// Run with: go test -bench=. -benchmem
// The cmd/speedbench tool prints the same experiments as formatted
// tables with the paper's exact parameters.
package speed_test

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"strings"
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

var table1Sizes = []struct {
	name string
	n    int
}{
	{"1KB", 1 << 10},
	{"10KB", 10 << 10},
	{"100KB", 100 << 10},
	{"1MB", 1 << 20},
}

func randomBytes(b *testing.B, n int) []byte {
	b.Helper()
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		b.Fatal(err)
	}
	return buf
}

func benchFuncID() mle.FuncID {
	return mle.FuncID(sha256.Sum256([]byte("bench func")))
}

// ---- Table I ----

func BenchmarkTableITagGen(b *testing.B) {
	id := benchFuncID()
	for _, size := range table1Sizes {
		b.Run(size.name, func(b *testing.B) {
			input := randomBytes(b, size.n)
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = mle.ComputeTag(id, input)
			}
		})
	}
}

func BenchmarkTableIKeyGen(b *testing.B) {
	id := benchFuncID()
	for _, size := range table1Sizes {
		b.Run(size.name, func(b *testing.B) {
			input := randomBytes(b, size.n)
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := mle.KeyGen(id, input, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIKeyRec(b *testing.B) {
	id := benchFuncID()
	for _, size := range table1Sizes {
		b.Run(size.name, func(b *testing.B) {
			input := randomBytes(b, size.n)
			challenge, wrapped, _, err := mle.KeyGen(id, input, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mle.KeyRec(id, input, challenge, wrapped); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIResultEnc(b *testing.B) {
	for _, size := range table1Sizes {
		b.Run(size.name, func(b *testing.B) {
			key, err := mle.GenerateKey(nil)
			if err != nil {
				b.Fatal(err)
			}
			result := randomBytes(b, size.n)
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mle.EncryptResult(key, result, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableIResultDec(b *testing.B) {
	for _, size := range table1Sizes {
		b.Run(size.name, func(b *testing.B) {
			key, err := mle.GenerateKey(nil)
			if err != nil {
				b.Fatal(err)
			}
			blob, err := mle.EncryptResult(key, randomBytes(b, size.n), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mle.DecryptResult(key, blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig. 5 plumbing ----

// fig5Env is a deployment for Fig. 5 benchmarks: app + store on one
// platform with simulated SGX costs.
type fig5Env struct {
	appEnc  *enclave.Enclave
	runtime *dedup.Runtime
}

func newFig5Env(b *testing.B) *fig5Env {
	b.Helper()
	platform := enclave.NewPlatform(enclave.Config{SimulateCosts: true})
	appEnc, err := platform.Create("app", []byte("app code"))
	if err != nil {
		b.Fatal(err)
	}
	storeEnc, err := platform.Create("store", []byte("store code"))
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
	return &fig5Env{appEnc: appEnc, runtime: rt}
}

// benchCase runs the three Fig. 5 measurements as sub-benchmarks.
func benchCase(b *testing.B, input []byte, compute func([]byte) ([]byte, error)) {
	b.Run("Baseline", func(b *testing.B) {
		env := newFig5Env(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := env.appEnc.ECall(func() error {
				_, err := compute(input)
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("InitComp", func(b *testing.B) {
		env := newFig5Env(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh FuncID per iteration keeps every Execute a miss
			// while the computation itself stays identical.
			var id mle.FuncID
			id[0], id[1], id[2], id[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
			if _, _, err := env.runtime.Execute(id, input, compute); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SubsqComp", func(b *testing.B) {
		env := newFig5Env(b)
		id := benchFuncID()
		if _, _, err := env.runtime.Execute(id, input, compute); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, outcome, err := env.runtime.Execute(id, input, compute)
			if err != nil {
				b.Fatal(err)
			}
			if outcome != dedup.OutcomeReused {
				b.Fatalf("outcome = %v, want reused", outcome)
			}
		}
	})
}

// ---- Fig. 5(a): SIFT ----

func BenchmarkFig5aSIFT(b *testing.B) {
	for _, size := range []int{64, 128, 192} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			img := workload.New(101).Image(size, size)
			input := sift.EncodeGray(img)
			compute := func(in []byte) ([]byte, error) {
				g, err := sift.DecodeGray(in)
				if err != nil {
					return nil, err
				}
				return sift.EncodeKeypoints(sift.Detect(g, sift.DefaultParams())), nil
			}
			benchCase(b, input, compute)
		})
	}
}

// ---- Fig. 5(b): compression ----

func BenchmarkFig5bCompress(b *testing.B) {
	for _, size := range []int{256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			input := workload.New(102).Text(size)
			compute := func(in []byte) ([]byte, error) {
				return compress.Compress(in), nil
			}
			benchCase(b, input, compute)
		})
	}
}

// ---- Fig. 5(c): pattern matching ----

func BenchmarkFig5cPattern(b *testing.B) {
	src := workload.New(103)
	rules := src.SnortRules(3700)
	rs, err := pattern.CompileRules(rules)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			var payload []byte
			for len(payload) < size {
				payload = append(payload, src.Packet(512, rules, 0.05)...)
			}
			payload = payload[:size]
			compute := func(in []byte) ([]byte, error) {
				return pattern.EncodeScanResult(rs.Scan(in)), nil
			}
			benchCase(b, payload, compute)
		})
	}
}

// ---- Fig. 5(d): BoW ----

func BenchmarkFig5dBoW(b *testing.B) {
	src := workload.New(104)
	for _, pages := range []int{300, 1000} {
		b.Run(fmt.Sprintf("%dpages", pages), func(b *testing.B) {
			var corpus strings.Builder
			for i := 0; i < pages; i++ {
				corpus.WriteString(src.WebPage(200))
				corpus.WriteByte('\n')
			}
			input := []byte(corpus.String())
			compute := func(in []byte) ([]byte, error) {
				counts, err := mapreduce.BagOfWords(strings.Split(string(in), "\n"), 4)
				if err != nil {
					return nil, err
				}
				return mapreduce.EncodeCounts(counts), nil
			}
			benchCase(b, input, compute)
		})
	}
}

// ---- Fig. 6: ResultStore throughput ----

func benchFig6(b *testing.B, withSGX bool) {
	for _, size := range table1Sizes {
		b.Run(size.name, func(b *testing.B) {
			platform := enclave.NewPlatform(enclave.Config{SimulateCosts: withSGX})
			storeEnc, err := platform.Create("store", []byte("store code"))
			if err != nil {
				b.Fatal(err)
			}
			st, err := store.New(store.Config{Enclave: storeEnc})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(st.Close)
			var owner enclave.Measurement
			blob := randomBytes(b, size.n)
			sealed := mle.Sealed{
				Challenge:  randomBytes(b, mle.ChallengeSize),
				WrappedKey: randomBytes(b, mle.KeySize),
				Blob:       blob,
			}

			b.Run("Put", func(b *testing.B) {
				b.SetBytes(int64(size.n))
				for i := 0; i < b.N; i++ {
					var tag mle.Tag
					tag[0], tag[1], tag[2], tag[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
					if _, err := st.Put(owner, tag, sealed); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("Get", func(b *testing.B) {
				var tag mle.Tag
				tag[31] = 0xFF
				if _, err := st.Put(owner, tag, sealed); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(size.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, found, err := st.Get(tag)
					if err != nil {
						b.Fatal(err)
					}
					if !found {
						b.Fatal("entry missing")
					}
				}
			})
		})
	}
}

func BenchmarkFig6WithSGX(b *testing.B)    { benchFig6(b, true) }
func BenchmarkFig6WithoutSGX(b *testing.B) { benchFig6(b, false) }
