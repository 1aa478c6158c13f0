package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/wire"
)

// versionOf is version v of tag i's sealed result, every byte a
// function of (i, v): the blob opens with both, so a reply names the
// version it claims to be and can be checked against it byte for byte.
func versionOf(i, v int) mle.Sealed {
	blob := make([]byte, 4<<10)
	binary.BigEndian.PutUint32(blob, uint32(i))
	binary.BigEndian.PutUint32(blob[4:], uint32(v))
	for k := 8; k < len(blob); k++ {
		blob[k] = byte(i*31 + v*7 + k)
	}
	return mle.Sealed{
		Challenge:  bytes.Repeat([]byte{byte(i)}, mle.ChallengeSize),
		WrappedKey: bytes.Repeat([]byte{byte(v)}, mle.KeySize),
		Blob:       blob,
	}
}

// TestRemoteGetsSeeStoredVersions pins what lets the server seal a GET
// reply straight from the engine's record views: a stored record's
// bytes are never written again. Remote GETs run concurrently with PUTs
// that replace (or first-version-win) the same few tags and with the
// evictions a cap of half those tags forces, on a volatile store and on
// a log-engine store whose small memtable flushes to segments; every
// hit must equal, byte for byte, a version some PUT stored. Run it
// under -race (make race).
func TestRemoteGetsSeeStoredVersions(t *testing.T) {
	const (
		tags    = 8
		writers = 2
		readers = 3
		puts    = 150 // per writer
	)
	for _, c := range []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"memory", func(*testing.T) Config { return Config{MaxEntries: tags / 2} }},
		{EngineLog, func(t *testing.T) Config {
			return Config{DataDir: t.TempDir(), Fsync: "none", MemtableBytes: 16 << 10, MaxEntries: tags / 2}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := enclave.NewPlatform(enclave.Config{})
			storeEnc, _ := p.Create("store", []byte("store code"))
			appEnc, _ := p.Create("app", []byte("app code"))
			cfg := c.cfg(t)
			cfg.Enclave = storeEnc
			srv := startServer(t, testStore(t, cfg))
			dial := func() *wire.Channel { return dialStore(t, srv.Addr().String(), appEnc, storeEnc.Measurement()) }
			tag := func(i int) mle.Tag { return tagOf(fmt.Sprint("view-", i)) }

			var (
				next    [tags]atomic.Int64 // versions handed out per tag
				done    atomic.Bool
				hits    atomic.Int64
				wg      sync.WaitGroup
				writing sync.WaitGroup
				errs    = make(chan error, writers+readers)
			)
			for w := 0; w < writers; w++ {
				ch := dial()
				wg.Add(1)
				writing.Add(1)
				go func(w int) {
					defer wg.Done()
					defer writing.Done()
					for n := 0; n < puts; n++ {
						i := (n + w) % tags
						v := int(next[i].Add(1))
						item := wire.PutItem{Tag: tag(i), Sealed: versionOf(i, v), Replace: n%3 != 0}
						if _, err := call(ch, wire.PutRequest{Items: []wire.PutItem{item}}); err != nil {
							errs <- fmt.Errorf("writer %d PUT: %w", w, err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				ch := dial()
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for n := 0; !done.Load(); n++ {
						i := (n + r) % tags
						got, err := getOver(ch, tag(i))
						if err != nil {
							errs <- fmt.Errorf("reader %d GET: %w", r, err)
							return
						}
						if !got.Found {
							continue
						}
						hits.Add(1)
						if len(got.Sealed.Blob) < 8 || int(binary.BigEndian.Uint32(got.Sealed.Blob)) != i {
							errs <- fmt.Errorf("reader %d: tag %d answered with another tag's blob", r, i)
							return
						}
						v := int(binary.BigEndian.Uint32(got.Sealed.Blob[4:]))
						want := versionOf(i, v)
						if v < 1 || int64(v) > next[i].Load() || !bytes.Equal(got.Sealed.Blob, want.Blob) ||
							!bytes.Equal(got.Sealed.Challenge, want.Challenge) || !bytes.Equal(got.Sealed.WrappedKey, want.WrappedKey) {
							errs <- fmt.Errorf("reader %d: tag %d answered with bytes no PUT stored (claims version %d)", r, i, v)
							return
						}
					}
				}(r)
			}
			writing.Wait()
			done.Store(true)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if hits.Load() == 0 {
				t.Error("no GET hit: the readers checked nothing")
			}
		})
	}
}
