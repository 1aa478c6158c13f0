package store

import (
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
