package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"speed/internal/chunk"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// probeIters is how many times each direct probe runs at --seconds
// refSeconds; probeSampleBytes caps the results held as probe inputs.
const (
	probeIters       = 2000
	probeSampleBytes = 32 * mib
	probeWireTimeout = time.Minute
)

// probes holds the median cost in µs of one direct call into each
// layer's public functions, on inputs and results taken from the
// workload's own stream.
type probes struct {
	tagUS, sealUS, openUS float64
	ecallUS               float64
	splitUSPerMiB         float64
	manifestUS            float64
	chunksPerResult       float64
	wireRoundTripUS       float64
	memGetUS, memPutUS    float64
	logGetUS, logPutUS    float64
	frameBytes            int
}

// runProbes times the direct probes. Each iteration is a span of tr.
func runProbes(w *workload, st *stream, iters int, dataRoot string, tr *tracer) (*probes, error) {
	start := time.Now()
	tr.now = func() int64 { return int64(time.Since(start)) }
	tr.spans = make([]span, 0, 12*iters)
	// timed runs fn iters times as spans called name and returns the
	// median in µs.
	timed := func(name string, n int, fn func(i int) error) (float64, error) {
		ns := make([]int64, n)
		for i := 0; i < n; i++ {
			t0 := tr.now()
			err := fn(i)
			t1 := tr.now()
			if err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
			tr.spans = append(tr.spans, span{Pass: tr.pass, Name: name, Start: t0, End: t1, Request: int32(i)})
			ns[i] = t1 - t0
		}
		return quantileOf(ns, 0.5), nil
	}

	// Samples: the first distinct inputs of the measured stream with
	// their results, at most iters of them and at most probeSampleBytes
	// of results; iterations cycle over them. On a chunked workload the
	// unit that is sealed, stored and fetched is one chunk of the
	// result.
	fn := mle.FuncID(sha256.Sum256([]byte("benchmark probe function")))
	ck, err := chunk.NewChunker(chunk.Config{})
	if err != nil {
		return nil, err
	}
	type sample struct {
		input, result, unit []byte
		sealed              mle.Sealed
	}
	var samples []sample
	seen := map[uint32]bool{}
	held := 0
	for _, id := range st.main.ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		res, err := st.compute(st.inputs[id])
		if err != nil {
			return nil, err
		}
		s := sample{input: st.inputs[id], result: res, unit: res}
		if w.chunkThreshold > 0 && len(res) >= w.chunkThreshold {
			chunks := ck.Split(res)
			s.unit = chunks[len(samples)%len(chunks)]
		}
		samples = append(samples, s)
		if held += len(res); len(samples) == iters || held >= probeSampleBytes {
			break
		}
	}
	n := len(samples)
	p := &probes{}

	if p.tagUS, err = timed("mle.tag", iters, func(i int) error {
		mle.ComputeTag(fn, samples[i%n].input)
		return nil
	}); err != nil {
		return nil, err
	}
	rce := &mle.RCE{}
	if p.sealUS, err = timed("mle.seal", iters, func(i int) (err error) {
		samples[i%n].sealed, err = rce.Encrypt(fn, samples[i%n].input, samples[i%n].unit)
		return err
	}); err != nil {
		return nil, err
	}
	if p.openUS, err = timed("mle.open", iters, func(i int) error {
		got, err := rce.Decrypt(fn, samples[i%n].input, samples[i%n].sealed)
		if err == nil && !bytes.Equal(got, samples[i%n].unit) {
			err = errors.New("opened bytes differ")
		}
		return err
	}); err != nil {
		return nil, err
	}
	sizes := make([]int, n)
	for i, s := range samples {
		sizes[i] = len(s.sealed.Blob) + len(s.sealed.Challenge) + len(s.sealed.WrappedKey)
	}
	sort.Ints(sizes)
	p.frameBytes = sizes[n/2]

	if w.chunkThreshold > 0 {
		var total int
		us, err := timed("chunk.split", iters, func(i int) error {
			total += len(ck.Split(samples[i%n].result))
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.splitUSPerMiB = us * mib / float64(len(samples[0].result))
		p.chunksPerResult = float64(total) / float64(iters)
		chunks := make([][][]byte, n)
		for i := range chunks {
			chunks[i] = ck.Split(samples[i].result)
		}
		if p.manifestUS, err = timed("chunk.manifest", iters, func(i int) error {
			_, err := chunk.BuildManifest(chunks[i%n])
			return err
		}); err != nil {
			return nil, err
		}
	}

	// The ECALL probe pays the simulated transition cost, which is what
	// it measures; the store and wire probes run on a platform without
	// it, because their rows split rung 1, the native rung.
	sgx, err := enclave.NewPlatform(enclave.Config{SimulateCosts: true}).Create("probe-sgx", []byte("benchmark app code"))
	if err != nil {
		return nil, err
	}
	defer sgx.Destroy()
	if p.ecallUS, err = timed("enclave.ecall", iters, func(int) error {
		return sgx.ECall(func() error { return nil })
	}); err != nil {
		return nil, err
	}
	platform := enclave.NewPlatform(enclave.Config{})
	app, err := platform.Create("probe-app", []byte("benchmark app code"))
	if err != nil {
		return nil, err
	}
	defer app.Destroy()
	storeEnc, err := platform.Create("probe-store", []byte("benchmark store code"))
	if err != nil {
		return nil, err
	}
	defer storeEnc.Destroy()

	if p.wireRoundTripUS, err = probeWire(app, storeEnc, p.frameBytes, iters, timed); err != nil {
		return nil, err
	}

	owner := app.Measurement()
	probeStore := func(prefix string, cfg store.Config) (get, put float64, err error) {
		cfg.Enclave = storeEnc
		s, err := store.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		defer s.Close()
		if put, err = timed(prefix+".put", iters, func(i int) error {
			installed, err := s.Put(owner, probeTag(i), samples[i%n].sealed)
			if err == nil && !installed {
				err = errors.New("fresh tag not installed")
			}
			return err
		}); err != nil {
			return 0, 0, err
		}
		get, err = timed(prefix+".get", iters, func(i int) error {
			_, found, err := s.GetAs(owner, probeTag(i))
			if err == nil && !found {
				err = errors.New("stored tag not found")
			}
			return err
		})
		return get, put, err
	}
	if p.memGetUS, p.memPutUS, err = probeStore("store.mem", store.Config{}); err != nil {
		return nil, err
	}
	if w.logEngine {
		dir, err := os.MkdirTemp(dataRoot, "probe-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if p.logGetUS, p.logPutUS, err = probeStore("store.log", store.Config{
			Engine: store.EngineLog, DataDir: dir, Fsync: w.fsync,
			MemtableBytes: logMemtableBytes, CacheBytes: logCacheBytes, CompactInterval: w.compactInterval,
		}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// probeTag is the tag the store probes file iteration i under: distinct
// per iteration, uniformly spread like a real tag.
func probeTag(i int) mle.Tag {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return mle.Tag(sha256.Sum256(b[:]))
}

// probeWire times an echo of size-byte payloads over an attested
// wire.Channel on loopback TCP: handshake once, then n round trips.
func probeWire(app, storeEnc *enclave.Enclave, size, n int, timed func(string, int, func(int) error) (float64, error)) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	// One deadline bounds the whole probe on both ends: a wedged peer
	// fails the run instead of hanging it.
	deadline := time.Now().Add(probeWireTimeout)
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		_ = conn.SetDeadline(deadline)
		ch, err := wire.ServerHandshake(conn, storeEnc, func(enclave.Measurement) bool { return true })
		for err == nil {
			var payload []byte
			if payload, err = ch.Recv(); err == nil {
				err = ch.Send(payload)
			}
		}
		echoed <- err
	}()
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), probeWireTimeout)
	if err != nil {
		return 0, err
	}
	_ = conn.SetDeadline(deadline)
	ch, err := wire.ClientHandshake(conn, app, storeEnc.Measurement())
	if err != nil {
		conn.Close()
		<-echoed
		return 0, err
	}
	payload := make([]byte, size)
	us, err := timed("wire.roundtrip", n, func(int) error {
		if err := ch.Send(payload); err != nil {
			return err
		}
		got, err := ch.Recv()
		if err == nil && len(got) != size {
			err = errors.New("echo of the wrong size")
		}
		return err
	})
	ch.Close()
	<-echoed // the echo loop ends when the client side closes
	return us, err
}
