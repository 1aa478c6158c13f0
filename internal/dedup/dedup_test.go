package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
)

// testEnv wires an application runtime to a local store, the paper's
// default same-machine deployment.
type testEnv struct {
	platform *enclave.Platform
	appEnc   *enclave.Enclave
	storeEnc *enclave.Enclave
	store    *store.Store
	runtime  *Runtime
}

func newTestEnv(t *testing.T, mutate func(*Config)) *testEnv {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("create app enclave: %v", err)
	}
	storeEnc, err := p.Create("store", []byte("store code"))
	if err != nil {
		t.Fatalf("create store enclave: %v", err)
	}
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	cfg := Config{
		Enclave: appEnc,
		Client:  NewLocalClient(st, appEnc.Measurement()),
		Logf:    func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	return &testEnv{platform: p, appEnc: appEnc, storeEnc: storeEnc, store: st, runtime: rt}
}

var deflateDesc = FuncDesc{Library: "zlib", Version: "1.2.11", Signature: "int deflate(...)"}

func (env *testEnv) funcID(t *testing.T) mle.FuncID {
	t.Helper()
	id, err := env.runtime.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return id
}

func TestRegistryResolveDeterministic(t *testing.T) {
	r := NewRegistry()
	r.RegisterLibrary("zlib", "1.2.11", []byte("code"))
	id1, err := r.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	id2, err := r.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if id1 != id2 {
		t.Error("Resolve is not deterministic")
	}
}

func TestRegistryResolveSensitivity(t *testing.T) {
	r := NewRegistry()
	r.RegisterLibrary("zlib", "1.2.11", []byte("code v1"))
	r.RegisterLibrary("zlib", "1.2.12", []byte("code v1"))
	base, err := r.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}

	// Different version -> different id even with identical code bytes.
	otherVersion, err := r.Resolve(FuncDesc{Library: "zlib", Version: "1.2.12", Signature: deflateDesc.Signature})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if otherVersion == base {
		t.Error("different version produced same FuncID")
	}

	// Different signature -> different id.
	otherSig, err := r.Resolve(FuncDesc{Library: "zlib", Version: "1.2.11", Signature: "int inflate(...)"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if otherSig == base {
		t.Error("different signature produced same FuncID")
	}

	// Different code for the same (library, version) -> different id.
	// This is what defeats "same description, tampered library".
	r2 := NewRegistry()
	r2.RegisterLibrary("zlib", "1.2.11", []byte("TAMPERED code"))
	tampered, err := r2.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if tampered == base {
		t.Error("tampered library code produced same FuncID")
	}
}

func TestRegistryUnknownLibrary(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Resolve(deflateDesc); !errors.Is(err, ErrUnknownLibrary) {
		t.Errorf("Resolve = %v, want ErrUnknownLibrary", err)
	}
}

func TestRegistryIncompleteDesc(t *testing.T) {
	r := NewRegistry()
	r.RegisterLibrary("zlib", "1.2.11", []byte("code"))
	for _, desc := range []FuncDesc{
		{},
		{Library: "zlib"},
		{Library: "zlib", Version: "1.2.11"},
		{Version: "1.2.11", Signature: "f()"},
	} {
		if _, err := r.Resolve(desc); err == nil {
			t.Errorf("Resolve(%v) accepted incomplete description", desc)
		}
	}
}

func TestExecuteMissThenHit(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	input := []byte("input bytes")
	var calls atomic.Int64
	slowSquare := func(in []byte) ([]byte, error) {
		calls.Add(1)
		return append([]byte("computed:"), in...), nil
	}

	res1, out1, err := env.runtime.Execute(id, input, slowSquare)
	if err != nil {
		t.Fatalf("Execute 1: %v", err)
	}
	if out1 != OutcomeComputed {
		t.Errorf("outcome 1 = %v, want computed", out1)
	}

	res2, out2, err := env.runtime.Execute(id, input, slowSquare)
	if err != nil {
		t.Fatalf("Execute 2: %v", err)
	}
	if out2 != OutcomeReused {
		t.Errorf("outcome 2 = %v, want reused", out2)
	}
	if !bytes.Equal(res1, res2) {
		t.Errorf("reused result %q != computed result %q", res2, res1)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("function executed %d times, want 1 (deduplicated)", got)
	}

	st := env.runtime.Stats()
	if st.Calls != 2 || st.Computed != 1 || st.Reused != 1 {
		t.Errorf("Stats = %+v, want 2 calls, 1 computed, 1 reused", st)
	}
	if st.BytesReused != int64(len(res1)) {
		t.Errorf("BytesReused = %d, want %d", st.BytesReused, len(res1))
	}
}

func TestExecuteDifferentInputsAreDistinct(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	fn := func(in []byte) ([]byte, error) { return append([]byte("r:"), in...), nil }

	r1, _, err := env.runtime.Execute(id, []byte("a"), fn)
	if err != nil {
		t.Fatalf("Execute a: %v", err)
	}
	r2, out, err := env.runtime.Execute(id, []byte("b"), fn)
	if err != nil {
		t.Fatalf("Execute b: %v", err)
	}
	if out != OutcomeComputed {
		t.Errorf("different input outcome = %v, want computed", out)
	}
	if bytes.Equal(r1, r2) {
		t.Error("different inputs produced identical results")
	}
}

func TestExecuteComputeErrorPropagates(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	wantErr := errors.New("deterministic failure")
	_, _, err := env.runtime.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
		return nil, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("Execute = %v, want %v", err, wantErr)
	}
	// Nothing must have been stored for the failed computation.
	if env.store.Len() != 0 {
		t.Errorf("store has %d entries after failed compute, want 0", env.store.Len())
	}
}

// Cross-application deduplication (Section III-C): app B, a different
// enclave with different code, reuses app A's stored result because it
// owns the same trusted library and input. No key is shared.
func TestExecuteCrossApplicationReuse(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	input := []byte("shared input")
	fn := func(in []byte) ([]byte, error) { return []byte("shared result"), nil }

	if _, _, err := env.runtime.Execute(id, input, fn); err != nil {
		t.Fatalf("app A Execute: %v", err)
	}

	appB, err := env.platform.Create("appB", []byte("app B code"))
	if err != nil {
		t.Fatalf("create app B: %v", err)
	}
	rtB, err := NewRuntime(Config{
		Enclave: appB,
		Client:  NewLocalClient(env.store, appB.Measurement()),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("NewRuntime B: %v", err)
	}
	defer rtB.Close()
	rtB.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	idB, err := rtB.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve B: %v", err)
	}
	if idB != id {
		t.Fatal("same library+desc resolved to different FuncIDs across apps")
	}

	res, out, err := rtB.Execute(idB, input, func([]byte) ([]byte, error) {
		t.Error("app B recomputed a result that should have been reused")
		return []byte("should not run"), nil
	})
	if err != nil {
		t.Fatalf("app B Execute: %v", err)
	}
	if out != OutcomeReused {
		t.Errorf("app B outcome = %v, want reused", out)
	}
	if string(res) != "shared result" {
		t.Errorf("app B result = %q, want %q", res, "shared result")
	}
}

// An application with a DIFFERENT library version must not be able to
// reuse (or even find) the stored result: its FuncID differs, so both
// tag and key derivation diverge.
func TestExecuteDifferentLibraryVersionIsolated(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	input := []byte("input")
	if _, _, err := env.runtime.Execute(id, input, func([]byte) ([]byte, error) {
		return []byte("v11 result"), nil
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}

	env.runtime.Registry().RegisterLibrary("zlib", "9.9.9", []byte("other zlib code"))
	otherID, err := env.runtime.Resolve(FuncDesc{Library: "zlib", Version: "9.9.9", Signature: deflateDesc.Signature})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	_, out, err := env.runtime.Execute(otherID, input, func([]byte) ([]byte, error) {
		return []byte("v99 result"), nil
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out != OutcomeComputed {
		t.Errorf("outcome = %v, want computed (no cross-version reuse)", out)
	}
}

// Cache poisoning defence: if the adversary corrupts the stored blob,
// the verification protocol returns ⊥ and the runtime transparently
// recomputes (and the caller still gets the right answer).
func TestExecuteRecoversFromPoisonedEntry(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	input := []byte("input")
	want := []byte("correct result")
	if _, _, err := env.runtime.Execute(id, input, func([]byte) ([]byte, error) {
		return want, nil
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}

	// Poison: replace the stored entry with a validly-formatted triple
	// produced for a DIFFERENT computation, spliced onto our tag. The
	// adversary controls the store machine's software stack, so model
	// it by installing a fresh store entry under our tag.
	scheme := &mle.RCE{}
	var evilID mle.FuncID
	evilID[0] = 0xEE
	evilSealed, err := scheme.Encrypt(evilID, []byte("evil input"), []byte("evil result"))
	if err != nil {
		t.Fatalf("evil Encrypt: %v", err)
	}
	tag := mle.ComputeTag(id, input)
	// Rebuild the store with the poisoned entry (first-wins semantics
	// prevent overwriting in place).
	poisonedStore, err := store.New(store.Config{Enclave: env.storeEnc})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	if _, err := poisonedStore.Put(env.appEnc.Measurement(), tag, evilSealed); err != nil {
		t.Fatalf("poison Put: %v", err)
	}
	rt2, err := NewRuntime(Config{
		Enclave: env.appEnc,
		Client:  NewLocalClient(poisonedStore, env.appEnc.Measurement()),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt2.Close()

	res, out, err := rt2.Execute(id, input, func([]byte) ([]byte, error) {
		return want, nil
	})
	if err != nil {
		t.Fatalf("Execute over poisoned store: %v", err)
	}
	if out != OutcomeRecomputed {
		t.Errorf("outcome = %v, want recomputed", out)
	}
	if !bytes.Equal(res, want) {
		t.Errorf("result = %q, want %q", res, want)
	}
	if got := rt2.Stats().VerifyFailures; got != 1 {
		t.Errorf("VerifyFailures = %d, want 1", got)
	}

	// Self-healing: the recomputation REPLACED the poisoned entry, so
	// the next call reuses the valid result instead of recomputing
	// forever.
	res, out, err = rt2.Execute(id, input, func([]byte) ([]byte, error) {
		t.Error("recomputed again after the replacement upload")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Execute after replacement: %v", err)
	}
	if out != OutcomeReused {
		t.Errorf("post-replacement outcome = %v, want reused", out)
	}
	if !bytes.Equal(res, want) {
		t.Errorf("post-replacement result = %q, want %q", res, want)
	}
}

// TestCloseRefusesLaterCalls: each call sends its PUT before it
// returns, so the store holds all n results when Close runs, and
// neither entry point runs on a closed runtime.
func TestCloseRefusesLaterCalls(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	const n = 10
	for i := 0; i < n; i++ {
		if _, _, err := env.runtime.Execute(id, []byte(fmt.Sprintf("in-%d", i)), func(in []byte) ([]byte, error) {
			return append([]byte("r:"), in...), nil
		}); err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
	}
	if err := env.runtime.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := env.store.Len(); got != n {
		t.Errorf("store has %d entries after Close, want %d", got, n)
	}
	if _, _, err := env.runtime.Execute(id, []byte("x"), nil); err == nil {
		t.Error("Execute after Close succeeded")
	}
	if _, err := env.runtime.ExecuteBatch(id, [][]byte{[]byte("x")}, nil); err == nil {
		t.Error("ExecuteBatch after Close succeeded")
	}
}

func TestExecuteToleratesPutRejection(t *testing.T) {
	env := newTestEnv(t, nil)
	// Swap in a store with a tiny quota so PUTs are rejected.
	smallStore, err := store.New(store.Config{
		Enclave:        env.storeEnc,
		MaxBytesPerApp: 1,
	})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	rt, err := NewRuntime(Config{
		Enclave: env.appEnc,
		Client:  NewLocalClient(smallStore, env.appEnc.Measurement()),
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Close()
	rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}

	res, out, err := rt.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
		return []byte("the result"), nil
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out != OutcomeComputed || string(res) != "the result" {
		t.Errorf("Execute = (%q, %v), want computed result despite rejected put", res, out)
	}
	if got := rt.Stats().PutErrors; got != 1 {
		t.Errorf("PutErrors = %d, want 1", got)
	}
}

func TestExecuteConcurrent(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	var computes atomic.Int64
	fn := func(in []byte) ([]byte, error) {
		computes.Add(1)
		return append([]byte("r:"), in...), nil
	}
	var wg sync.WaitGroup
	const workers = 8
	const inputs = 20
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < inputs; i++ {
				in := []byte(fmt.Sprintf("input-%d", i))
				res, _, err := env.runtime.Execute(id, in, fn)
				if err != nil {
					t.Errorf("Execute: %v", err)
					return
				}
				if want := "r:" + string(in); string(res) != want {
					t.Errorf("result = %q, want %q", res, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every worker may race on first execution, but the store
	// deduplicates: at most workers*inputs computes, at least inputs.
	got := computes.Load()
	if got < inputs || got > workers*inputs {
		t.Errorf("computes = %d, want within [%d, %d]", got, inputs, workers*inputs)
	}
	if env.store.Len() != inputs {
		t.Errorf("store entries = %d, want %d", env.store.Len(), inputs)
	}
}

// In-flight coalescing: concurrent identical calls share one
// computation instead of racing it to the store.
func TestExecuteCoalescesConcurrentCalls(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)

	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	slow := func(in []byte) ([]byte, error) {
		computes.Add(1)
		close(started)
		<-release
		return []byte("shared result"), nil
	}

	const waiters = 6
	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	results := make([][]byte, waiters)
	errs := make([]error, waiters)

	// Leader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], outcomes[0], errs[0] = env.runtime.Execute(id, []byte("in"), slow)
	}()
	<-started
	// Waiters join while the leader is mid-computation.
	for w := 1; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], outcomes[w], errs[w] = env.runtime.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
				t.Error("waiter executed the function")
				return nil, nil
			})
		}(w)
	}
	// Give the waiters a moment to join the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for w := 0; w < waiters; w++ {
		if errs[w] != nil {
			t.Fatalf("call %d: %v", w, errs[w])
		}
		if string(results[w]) != "shared result" {
			t.Errorf("call %d result = %q", w, results[w])
		}
	}
	if got := computes.Load(); got != 1 {
		t.Errorf("function executed %d times, want 1", got)
	}
	coalesced := 0
	for _, o := range outcomes {
		if o == OutcomeCoalesced {
			coalesced++
		}
	}
	if coalesced != waiters-1 {
		t.Errorf("coalesced outcomes = %d, want %d (outcomes %v)", coalesced, waiters-1, outcomes)
	}
	if got := env.runtime.Stats().Coalesced; got != int64(waiters-1) {
		t.Errorf("Stats.Coalesced = %d, want %d", got, waiters-1)
	}
	// Only one store entry and one put.
	if got := env.store.Stats().Puts; got != 1 {
		t.Errorf("store Puts = %d, want 1", got)
	}
}

// A leader's failure propagates to the waiters rather than handing
// them a stale result.
func TestExecuteCoalescedErrorPropagates(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	wantErr := errors.New("leader failure")
	started := make(chan struct{})
	release := make(chan struct{})

	done := make(chan error, 2)
	go func() {
		_, _, err := env.runtime.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
			close(started)
			<-release
			return nil, wantErr
		})
		done <- err
	}()
	<-started
	go func() {
		_, _, err := env.runtime.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
			return nil, wantErr
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; !errors.Is(err, wantErr) {
			t.Errorf("call %d error = %v, want %v", i, err, wantErr)
		}
	}
	// The flight is cleaned up: a later call works normally.
	res, outcome, err := env.runtime.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || outcome != OutcomeComputed || string(res) != "ok" {
		t.Errorf("post-failure Execute = (%q, %v, %v)", res, outcome, err)
	}
}

func TestExecuteUsesECallsAndOCalls(t *testing.T) {
	env := newTestEnv(t, nil)
	id := env.funcID(t)
	before := env.appEnc.Metrics()
	if _, _, err := env.runtime.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
		return []byte("r"), nil
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	after := env.appEnc.Metrics()
	// Initial computation: 1 ECALL (enter app enclave), 1 OCALL (GET);
	// the sealed PUT leaves after the ECALL returns.
	if after.ECalls-before.ECalls != 1 {
		t.Errorf("ECalls delta = %d, want 1", after.ECalls-before.ECalls)
	}
	if after.OCalls-before.OCalls != 1 {
		t.Errorf("OCalls delta = %d, want 1", after.OCalls-before.OCalls)
	}

	before = after
	if _, _, err := env.runtime.Execute(id, []byte("in"), func([]byte) ([]byte, error) {
		return []byte("r"), nil
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	after = env.appEnc.Metrics()
	// Subsequent computation: 1 ECALL, 1 OCALL (GET only).
	if after.OCalls-before.OCalls != 1 {
		t.Errorf("hit OCalls delta = %d, want 1", after.OCalls-before.OCalls)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	e, _ := p.Create("app", []byte("code"))
	if _, err := NewRuntime(Config{Client: &LocalClient{}}); err == nil {
		t.Error("NewRuntime accepted nil enclave")
	}
	if _, err := NewRuntime(Config{Enclave: e}); err == nil {
		t.Error("NewRuntime accepted nil client")
	}
}

func TestRuntimeCloseIdempotent(t *testing.T) {
	env := newTestEnv(t, nil)
	if err := env.runtime.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := env.runtime.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		o    Outcome
		want string
	}{
		{OutcomeComputed, "computed"},
		{OutcomeReused, "reused"},
		{OutcomeRecomputed, "recomputed"},
		{Outcome(42), "Outcome(42)"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.o), got, tt.want)
		}
	}
}
