package store

import (
	"fmt"
	"math/rand"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/wire"
)

// BenchmarkHotDispatchGetOne is the server's one-tag GET hit on a
// volatile store — the store side of a hit_small hit — which
// `make bench-regress` pins against bench/baseline.txt.
func BenchmarkHotDispatchGetOne(b *testing.B) {
	p := enclave.NewPlatform(enclave.Config{})
	enc, err := p.Create("store", []byte("store code"))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Enclave: enc})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	srv := NewServer(s, nil)
	owner := ownerOf("app")
	sealed := sealedOf(string(make([]byte, 4<<10)))
	if _, err := s.Put(owner, tagOf("hot"), sealed); err != nil {
		b.Fatal(err)
	}
	req := wire.GetRequest{Tags: []mle.Tag{tagOf("hot")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reply, err := srv.Dispatch(owner, req)
		if err != nil || !reply.(wire.GetResponse).Results[0].Found {
			b.Fatalf("Dispatch = %v, %v", reply, err)
		}
	}
}

// BenchmarkCappedZipfHitRatio replays one seeded Zipf stream of
// get-then-put-on-miss calls, the runtime's access pattern, against a
// store capped at a tenth of its key space, and reports the share of
// GETs that hit: exact LRU without a directory, the persistent store's
// eviction order (oldest segment first) with one. It measures the
// policy, not speed:
//
//	go test ./internal/store -run '^$' -bench CappedZipfHitRatio -benchtime 1x
func BenchmarkCappedZipfHitRatio(b *testing.B) {
	const (
		keys  = 5000
		calls = 20000
	)
	for _, c := range []struct {
		name string
		dir  bool
	}{{"memory", false}, {EngineLog, true}} {
		b.Run(c.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				enc, err := enclave.NewPlatform(enclave.Config{}).Create("store", []byte("store code"))
				if err != nil {
					b.Fatal(err)
				}
				cfg := Config{Enclave: enc, MaxEntries: keys / 10}
				if c.dir {
					cfg.DataDir, cfg.MemtableBytes, cfg.Fsync, cfg.CompactInterval = b.TempDir(), 16<<10, "none", -1
				}
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, keys-1)
				owner, sealed := ownerOf("app"), sealedOf(string(make([]byte, 64)))
				for n := 1; n <= calls; n++ {
					tag := tagOf(fmt.Sprint("k", zipf.Uint64()))
					if _, found, err := s.Get(tag); err != nil {
						b.Fatal(err)
					} else if !found {
						if _, err := s.Put(owner, tag, sealed); err != nil {
							b.Fatal(err)
						}
					}
					if c.dir && n%1000 == 0 {
						if err := s.Compact(); err != nil {
							b.Fatal(err)
						}
					}
				}
				st := s.Stats()
				ratio = float64(st.Hits) / float64(st.Gets)
				s.Close()
			}
			b.ReportMetric(ratio, "hits/get")
		})
	}
}
