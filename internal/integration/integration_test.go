// Package integration_test exercises end-to-end scenarios across all
// SPEED modules: real workloads over the full enclave + runtime +
// store + wire stack, restart recovery, replication, and failure
// injection.
package integration_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"speed/internal/compress"
	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/pattern"
	"speed/internal/sift"
	"speed/internal/store"
	"speed/internal/wire"
	"speed/internal/workload"
)

// mkStack builds platform + store (+ options) and returns a runtime
// factory for apps on that platform.
type stack struct {
	t        *testing.T
	platform *enclave.Platform
	storeEnc *enclave.Enclave
	store    *store.Store
}

func newStack(t *testing.T, storeCfg store.Config, platCfg enclave.Config) *stack {
	t.Helper()
	p := enclave.NewPlatform(platCfg)
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("create store enclave: %v", err)
	}
	storeCfg.Enclave = storeEnc
	st, err := store.New(storeCfg)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return &stack{t: t, platform: p, storeEnc: storeEnc, store: st}
}

func (s *stack) newApp(name string) *dedup.Runtime {
	s.t.Helper()
	return s.newAppVia(name, func(c dedup.StoreClient) dedup.StoreClient { return c })
}

// newAppVia is newApp with the store client passed through wrap, so a
// test can interpose on the runtime's store traffic.
func (s *stack) newAppVia(name string, wrap func(dedup.StoreClient) dedup.StoreClient) *dedup.Runtime {
	s.t.Helper()
	enc, err := s.platform.Create(name, []byte(name+" code"))
	if err != nil {
		s.t.Fatalf("create app enclave: %v", err)
	}
	rt, err := dedup.NewRuntime(dedup.Config{
		Enclave: enc,
		Client:  wrap(dedup.NewLocalClient(s.store, enc.Measurement())),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		s.t.Fatalf("NewRuntime: %v", err)
	}
	s.t.Cleanup(func() { _ = rt.Close() })
	rt.Registry().RegisterLibrary("applib", "1.0", []byte("app library code"))
	return rt
}

func appFuncID(t *testing.T, rt *dedup.Runtime, sig string) mle.FuncID {
	t.Helper()
	id, err := rt.Resolve(dedup.FuncDesc{Library: "applib", Version: "1.0", Signature: sig})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return id
}

// TestAllWorkloadsEndToEnd runs all four paper workloads through the
// full stack and cross-checks deduplicated results against direct
// computation.
func TestAllWorkloadsEndToEnd(t *testing.T) {
	s := newStack(t, store.Config{}, enclave.Config{})
	rt := s.newApp("app")
	gen := workload.New(55)

	// Case 1: SIFT.
	img := gen.Image(96, 96)
	siftID := appFuncID(t, rt, "sift")
	siftCompute := func(in []byte) ([]byte, error) {
		g, err := sift.DecodeGray(in)
		if err != nil {
			return nil, err
		}
		return sift.EncodeKeypoints(sift.Detect(g, sift.DefaultParams())), nil
	}
	input := sift.EncodeGray(img)
	direct, err := siftCompute(input)
	if err != nil {
		t.Fatalf("sift direct: %v", err)
	}
	got1, _, err := rt.Execute(siftID, input, siftCompute)
	if err != nil {
		t.Fatalf("sift execute: %v", err)
	}
	got2, outcome, err := rt.Execute(siftID, input, siftCompute)
	if err != nil {
		t.Fatalf("sift execute 2: %v", err)
	}
	if outcome != dedup.OutcomeReused {
		t.Errorf("sift outcome = %v, want reused", outcome)
	}
	if !bytes.Equal(got1, direct) || !bytes.Equal(got2, direct) {
		t.Error("sift deduplicated result differs from direct computation")
	}

	// Case 2: compression (verify reuse AND that the reused blob
	// decompresses to the original).
	text := gen.Text(100 << 10)
	zID := appFuncID(t, rt, "deflate")
	zCompute := func(in []byte) ([]byte, error) { return compress.Compress(in), nil }
	if _, _, err := rt.Execute(zID, text, zCompute); err != nil {
		t.Fatalf("compress execute: %v", err)
	}
	comp, outcome, err := rt.Execute(zID, text, zCompute)
	if err != nil {
		t.Fatalf("compress execute 2: %v", err)
	}
	if outcome != dedup.OutcomeReused {
		t.Errorf("compress outcome = %v, want reused", outcome)
	}
	plain, err := compress.Decompress(comp)
	if err != nil || !bytes.Equal(plain, text) {
		t.Errorf("reused compressed blob does not round-trip: %v", err)
	}

	// Case 3: pattern matching with Snort-like rules.
	rules := gen.SnortRules(300)
	rs, err := pattern.CompileRules(rules)
	if err != nil {
		t.Fatalf("CompileRules: %v", err)
	}
	pkt := gen.Packet(32<<10, rules, 0.5)
	pID := appFuncID(t, rt, "scan")
	pCompute := func(in []byte) ([]byte, error) {
		return pattern.EncodeScanResult(rs.Scan(in)), nil
	}
	if _, _, err := rt.Execute(pID, pkt, pCompute); err != nil {
		t.Fatalf("pattern execute: %v", err)
	}
	res, outcome, err := rt.Execute(pID, pkt, pCompute)
	if err != nil {
		t.Fatalf("pattern execute 2: %v", err)
	}
	if outcome != dedup.OutcomeReused {
		t.Errorf("pattern outcome = %v, want reused", outcome)
	}
	wantIDs := rs.Scan(pkt)
	gotIDs, err := pattern.DecodeScanResult(res)
	if err != nil {
		t.Fatalf("DecodeScanResult: %v", err)
	}
	if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
		t.Errorf("reused scan = %v, want %v", gotIDs, wantIDs)
	}

	if got := s.store.Len(); got != 3 {
		t.Errorf("store entries = %d, want 3", got)
	}
}

// TestRestartRecoveryFromDataDir models a full store restart: the
// log engine's data directory survives; a fresh process (same machine
// seed, same store code) reopens it and applications keep hitting.
func TestRestartRecoveryFromDataDir(t *testing.T) {
	dir := t.TempDir()
	mkStack := func() *stack {
		return newStack(t, store.Config{DataDir: dir}, enclave.Config{PlatformSeed: []byte("machine-7")})
	}

	s1 := mkStack()
	rt1 := s1.newApp("app")
	id := appFuncID(t, rt1, "expensive")
	compute := func(in []byte) ([]byte, error) {
		return append([]byte("result-of-"), in...), nil
	}
	for i := 0; i < 10; i++ {
		if _, _, err := rt1.Execute(id, []byte(fmt.Sprintf("input-%d", i)), compute); err != nil {
			t.Fatalf("Execute: %v", err)
		}
	}
	s1.store.Close()

	// "Restart".
	s2 := mkStack()
	defer s2.store.Close()
	if n := s2.store.Len(); n != 10 {
		t.Fatalf("reopened store has %d entries, want 10", n)
	}
	rt2 := s2.newApp("app")
	id2 := appFuncID(t, rt2, "expensive")
	for i := 0; i < 10; i++ {
		res, outcome, err := rt2.Execute(id2, []byte(fmt.Sprintf("input-%d", i)), func([]byte) ([]byte, error) {
			t.Error("recomputed after restart")
			return nil, nil
		})
		if err != nil {
			t.Fatalf("Execute after restart: %v", err)
		}
		if outcome != dedup.OutcomeReused {
			t.Errorf("input %d outcome = %v, want reused", i, outcome)
		}
		if want := fmt.Sprintf("result-of-input-%d", i); string(res) != want {
			t.Errorf("restart result = %q, want %q", res, want)
		}
	}
}

// TestReplicationAcrossMachines: two edge deployments compute
// independently; their results are copied to a master store by tag,
// the first version of each tag winning; a consumer attached to the
// master reuses results it never computed — across machines, with no
// shared key, via the RCE scheme.
func TestReplicationAcrossMachines(t *testing.T) {
	edge1 := newStack(t, store.Config{}, enclave.Config{})
	edge2 := newStack(t, store.Config{}, enclave.Config{})
	master := newStack(t, store.Config{}, enclave.Config{})

	rtA := edge1.newApp("producer-A")
	rtB := edge2.newApp("producer-B")
	idA := appFuncID(t, rtA, "shared-func")
	idB := appFuncID(t, rtB, "shared-func")
	if idA != idB {
		t.Fatal("same library resolved differently across machines")
	}

	compute := func(in []byte) ([]byte, error) {
		return append([]byte("R:"), in...), nil
	}
	// Each edge computes some inputs; in-4 and in-5 on both.
	for i := 0; i < 6; i++ {
		input := []byte(fmt.Sprintf("in-%d", i))
		if _, _, err := rtA.Execute(idA, input, compute); err != nil {
			t.Fatalf("A Execute: %v", err)
		}
	}
	for i := 4; i < 10; i++ {
		input := []byte(fmt.Sprintf("in-%d", i))
		if _, _, err := rtB.Execute(idB, input, compute); err != nil {
			t.Fatalf("B Execute: %v", err)
		}
	}

	// Copy the ten known tags edge → master, edge 1 first: a copy is a
	// GET on one store and a PUT on the other, as read-repair does.
	firstCopy := make(map[mle.Tag]mle.Sealed)
	installed := 0
	for _, edge := range []struct {
		st  *store.Store
		app enclave.Measurement
	}{{edge1.store, rtA.Enclave().Measurement()}, {edge2.store, rtB.Enclave().Measurement()}} {
		for i := 0; i < 10; i++ {
			tag := mle.ComputeTag(idA, []byte(fmt.Sprintf("in-%d", i)))
			sealed, found, err := edge.st.GetAs(edge.app, tag)
			if err != nil {
				t.Fatalf("edge GetAs: %v", err)
			}
			if !found {
				continue
			}
			created, err := master.store.Put(edge.app, tag, sealed)
			if err != nil {
				t.Fatalf("master Put: %v", err)
			}
			if created {
				installed++
				firstCopy[tag] = sealed
			} else if bytes.Equal(sealed.Blob, firstCopy[tag].Blob) {
				t.Errorf("edges sealed %v identically, so first-version-wins goes unchecked", tag)
			}
		}
	}
	// 12 copies of 10 distinct tags: the two overlapping tags are stored
	// once, as edge 1's version.
	if got := master.store.Len(); installed != 10 || got != 10 {
		t.Errorf("master installed %d entries and holds %d, want 10", installed, got)
	}
	for tag, want := range firstCopy {
		got, found, err := master.store.Get(tag)
		if err != nil || !found || !bytes.Equal(got.Blob, want.Blob) {
			t.Errorf("master entry %v is not the first version copied (found=%v, err=%v)", tag, found, err)
		}
	}

	rtC := master.newApp("consumer-C")
	idC := appFuncID(t, rtC, "shared-func")
	for i := 0; i < 10; i++ {
		input := []byte(fmt.Sprintf("in-%d", i))
		res, outcome, err := rtC.Execute(idC, input, func([]byte) ([]byte, error) {
			t.Errorf("consumer recomputed input %d", i)
			return nil, nil
		})
		if err != nil {
			t.Fatalf("C Execute: %v", err)
		}
		if outcome != dedup.OutcomeReused {
			t.Errorf("input %d outcome = %v, want reused", i, outcome)
		}
		if want := "R:" + string(input); string(res) != want {
			t.Errorf("consumer result = %q, want %q", res, want)
		}
	}
}

// flakyClient fails every nth GET or PUT round trip, injecting faults
// on the path to the untrusted store.
type flakyClient struct {
	dedup.StoreClient
	mu    sync.Mutex
	n     int
	count int
}

func (f *flakyClient) tick() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	return f.count%f.n == 0
}

func (f *flakyClient) Get(tc wire.TraceContext, tags []mle.Tag, tokens [][]byte) ([]wire.GetResult, error) {
	if f.tick() {
		return nil, errors.New("injected store get failure")
	}
	return f.StoreClient.Get(tc, tags, tokens)
}

func (f *flakyClient) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	if f.tick() {
		return nil, errors.New("injected store put failure")
	}
	return f.StoreClient.Put(tc, items)
}

// TestFlakyUntrustedStorage: faults on the way to the untrusted store
// must never produce wrong results — only recomputation.
func TestFlakyUntrustedStorage(t *testing.T) {
	s := newStack(t, store.Config{}, enclave.Config{})
	rt := s.newAppVia("app", func(c dedup.StoreClient) dedup.StoreClient {
		return &flakyClient{StoreClient: c, n: 3}
	})
	id := appFuncID(t, rt, "f")

	compute := func(in []byte) ([]byte, error) {
		return append([]byte("ok-"), in...), nil
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			input := []byte(fmt.Sprintf("in-%d", i))
			res, _, err := rt.Execute(id, input, compute)
			if err != nil {
				t.Fatalf("Execute round %d input %d: %v", round, i, err)
			}
			if want := "ok-" + string(input); string(res) != want {
				t.Fatalf("wrong result under storage faults: %q != %q", res, want)
			}
		}
	}
	st := rt.Stats()
	if st.StoreFailures == 0 {
		t.Error("no store failure was injected")
	}
	if st.Reused == 0 {
		t.Error("no reuse at all despite mostly-working storage")
	}
}

// TestQuotaIsolationEndToEnd: one flooding application exhausts its
// quota; a well-behaved application is unaffected.
func TestQuotaIsolationEndToEnd(t *testing.T) {
	s := newStack(t, store.Config{
		MaxBytesPerApp: 2 << 10,
	}, enclave.Config{})
	flooder := s.newApp("flooder")
	good := s.newApp("good")
	fID := appFuncID(t, flooder, "flood")
	gID := appFuncID(t, good, "good")

	// The flooder uploads big results until its quota denies.
	big := func(in []byte) ([]byte, error) { return make([]byte, 1<<10), nil }
	for i := 0; i < 10; i++ {
		if _, _, err := flooder.Execute(fID, []byte(fmt.Sprintf("f-%d", i)), big); err != nil {
			t.Fatalf("flooder Execute: %v", err)
		}
	}
	if got := flooder.Stats().PutErrors; got == 0 {
		t.Error("flooder never hit quota")
	}

	// The good app still stores and reuses.
	small := func(in []byte) ([]byte, error) { return []byte("small"), nil }
	if _, _, err := good.Execute(gID, []byte("g"), small); err != nil {
		t.Fatalf("good Execute: %v", err)
	}
	_, outcome, err := good.Execute(gID, []byte("g"), small)
	if err != nil {
		t.Fatalf("good Execute 2: %v", err)
	}
	if outcome != dedup.OutcomeReused {
		t.Errorf("good outcome = %v, want reused (unaffected by flooder)", outcome)
	}
}

// TestNetworkedStackWithAuthorization: remote clients over the real
// TCP + attested channel path with an ACL at the store.
func TestNetworkedStackWithAuthorization(t *testing.T) {
	acl := store.NewACL(0)
	s := newStack(t, store.Config{Auth: acl}, enclave.Config{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := store.NewServer(s.store, ln, store.WithLogf(func(string, ...any) {}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve()
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		wg.Wait()
	})

	mkRemoteApp := func(name string) *dedup.Runtime {
		enc, err := s.platform.Create(name, []byte(name+" code"))
		if err != nil {
			t.Fatalf("create enclave: %v", err)
		}
		client, err := dedup.Dial(ln.Addr().String(), enc, s.storeEnc.Measurement())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		rt, err := dedup.NewRuntime(dedup.Config{
			Enclave: enc,
			Client:  client,
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		rt.Registry().RegisterLibrary("applib", "1.0", []byte("app library code"))
		return rt
	}

	authorized := mkRemoteApp("authorized")
	stranger := mkRemoteApp("stranger")
	acl.Grant(authorized.Enclave().Measurement(), store.PermAll)

	aID := appFuncID(t, authorized, "f")
	sID := appFuncID(t, stranger, "f")
	compute := func(in []byte) ([]byte, error) { return []byte("res"), nil }

	if _, _, err := authorized.Execute(aID, []byte("x"), compute); err != nil {
		t.Fatalf("authorized Execute: %v", err)
	}
	if _, outcome, err := authorized.Execute(aID, []byte("x"), compute); err != nil || outcome != dedup.OutcomeReused {
		t.Errorf("authorized reuse = (%v, %v)", outcome, err)
	}

	// The stranger's GET is denied (served as miss) and its PUT is
	// rejected; the call still succeeds via local computation.
	res, outcome, err := stranger.Execute(sID, []byte("x"), compute)
	if err != nil {
		t.Fatalf("stranger Execute: %v", err)
	}
	if outcome != dedup.OutcomeComputed || string(res) != "res" {
		t.Errorf("stranger = (%q, %v), want computed res", res, outcome)
	}
	if got := stranger.Stats().PutErrors; got != 1 {
		t.Errorf("stranger PutErrors = %d, want 1", got)
	}
	if got := s.store.Stats().Unauthorized; got == 0 {
		t.Error("no unauthorized operations recorded at the store")
	}
}

// TestChannelCutMidSession: killing the TCP connection surfaces errors
// to the client rather than hanging or corrupting.
func TestChannelCutMidSession(t *testing.T) {
	s := newStack(t, store.Config{}, enclave.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := store.NewServer(s.store, ln, store.WithLogf(func(string, ...any) {}))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve()
	}()

	enc, err := s.platform.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("create enclave: %v", err)
	}
	client, err := dedup.Dial(ln.Addr().String(), enc, s.storeEnc.Measurement())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	var tag mle.Tag
	tag[0] = 9
	item := wire.PutItem{Tag: tag, Sealed: mle.Sealed{Blob: []byte("x")}}
	if res, err := client.Put(wire.TraceContext{}, []wire.PutItem{item}); err != nil || !res[0].OK {
		t.Fatalf("Put = (%v, %v)", res, err)
	}

	// Cut the server.
	_ = srv.Close()
	wg.Wait()

	if _, err := client.Get(wire.TraceContext{}, []mle.Tag{tag}, nil); err == nil {
		t.Error("Get over a cut channel succeeded")
	}
}
