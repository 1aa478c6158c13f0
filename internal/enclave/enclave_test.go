package enclave

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func newTestPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	return NewPlatform(cfg)
}

func TestCreateMeasurementDeterministic(t *testing.T) {
	p := newTestPlatform(t, Config{})
	code := []byte("application code v1")
	e1, err := p.Create("a", code)
	if err != nil {
		t.Fatalf("Create a: %v", err)
	}
	e2, err := p.Create("b", code)
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	if e1.Measurement() != e2.Measurement() {
		t.Errorf("same code produced different measurements: %v vs %v",
			e1.Measurement(), e2.Measurement())
	}
	e3, err := p.Create("c", []byte("application code v2"))
	if err != nil {
		t.Fatalf("Create c: %v", err)
	}
	if e1.Measurement() == e3.Measurement() {
		t.Error("different code produced identical measurements")
	}
}

func TestCreateDuplicateName(t *testing.T) {
	p := newTestPlatform(t, Config{})
	if _, err := p.Create("dup", []byte("x")); err != nil {
		t.Fatalf("first Create: %v", err)
	}
	if _, err := p.Create("dup", []byte("y")); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestAllocFreeAccounting(t *testing.T) {
	p := newTestPlatform(t, Config{EPCBytes: 1 << 20, EPCUsableBytes: 1 << 20})
	e, err := p.Create("app", []byte("code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := e.Alloc(1000); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if got := e.HeapUsed(); got != 1000 {
		t.Errorf("HeapUsed = %d, want 1000", got)
	}
	if got := p.EPCUsed(); got != 1000 {
		t.Errorf("EPCUsed = %d, want 1000", got)
	}
	e.Free(400)
	if got := e.HeapUsed(); got != 600 {
		t.Errorf("HeapUsed after Free = %d, want 600", got)
	}
	if got := p.EPCUsed(); got != 600 {
		t.Errorf("EPCUsed after Free = %d, want 600", got)
	}
	// Over-free clamps to zero rather than going negative.
	e.Free(10_000)
	if got := e.HeapUsed(); got != 0 {
		t.Errorf("HeapUsed after over-free = %d, want 0", got)
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	p := newTestPlatform(t, Config{EPCBytes: 4096, EPCUsableBytes: 4096})
	e, err := p.Create("app", []byte("code"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := e.Alloc(4096); err != nil {
		t.Fatalf("Alloc within budget: %v", err)
	}
	err = e.Alloc(1)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("Alloc beyond EPC = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocNegative(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	if err := e.Alloc(-5); err == nil {
		t.Error("negative Alloc accepted")
	}
}

func TestPagingPenaltyCounted(t *testing.T) {
	p := newTestPlatform(t, Config{
		EPCBytes:       1 << 20,
		EPCUsableBytes: 8192,
		PagingCost:     time.Nanosecond,
	})
	e, _ := p.Create("app", []byte("code"))
	if err := e.Alloc(8192); err != nil {
		t.Fatalf("Alloc within usable: %v", err)
	}
	if got := e.Metrics().PageFaults; got != 0 {
		t.Fatalf("PageFaults within usable budget = %d, want 0", got)
	}
	if err := e.Alloc(10_000); err != nil {
		t.Fatalf("Alloc beyond usable: %v", err)
	}
	// 10_000 bytes past the boundary is ceil(10000/4096) = 3 pages.
	if got := e.Metrics().PageFaults; got != 3 {
		t.Errorf("PageFaults = %d, want 3", got)
	}
}

func TestECallOCallMetrics(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	ran := 0
	if err := e.ECall(func() error { ran++; return nil }); err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if err := e.OCall(func() error { ran++; return nil }); err != nil {
		t.Fatalf("OCall: %v", err)
	}
	if ran != 2 {
		t.Errorf("callbacks ran %d times, want 2", ran)
	}
	m := e.Metrics()
	if m.ECalls != 1 || m.OCalls != 1 {
		t.Errorf("Metrics = %+v, want 1 ECall and 1 OCall", m)
	}
}

func TestECallPropagatesError(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	want := errors.New("inner failure")
	if err := e.ECall(func() error { return want }); !errors.Is(err, want) {
		t.Errorf("ECall error = %v, want %v", err, want)
	}
}

func TestTransitionCostSimulated(t *testing.T) {
	cost := 200 * time.Microsecond
	p := newTestPlatform(t, Config{TransitionCost: cost, SimulateCosts: true})
	e, _ := p.Create("app", []byte("code"))
	start := time.Now()
	if err := e.ECall(func() error { return nil }); err != nil {
		t.Fatalf("ECall: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < 2*cost {
		t.Errorf("ECall took %v, want >= %v (entry + exit)", elapsed, 2*cost)
	}

	// Without simulation the same call should be far cheaper.
	p2 := newTestPlatform(t, Config{TransitionCost: cost, SimulateCosts: false})
	e2, _ := p2.Create("app", []byte("code"))
	start = time.Now()
	if err := e2.ECall(func() error { return nil }); err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if fast := time.Since(start); fast > cost {
		t.Errorf("un-simulated ECall took %v, want < %v", fast, cost)
	}
}

func TestDestroyReleasesEPC(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	if err := e.Alloc(1 << 16); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	e.Destroy()
	if got := p.EPCUsed(); got != 0 {
		t.Errorf("EPCUsed after Destroy = %d, want 0", got)
	}
	if err := e.ECall(func() error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Errorf("ECall after Destroy = %v, want ErrDestroyed", err)
	}
	if err := e.Alloc(1); !errors.Is(err, ErrDestroyed) {
		t.Errorf("Alloc after Destroy = %v, want ErrDestroyed", err)
	}
	// Name can be reused after destruction.
	if _, err := p.Create("app", []byte("code")); err != nil {
		t.Errorf("Create after Destroy: %v", err)
	}
}

func TestDestroyIdempotent(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	if err := e.Alloc(4096); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	e.Destroy()
	e.Destroy()
	if got := p.EPCUsed(); got != 0 {
		t.Errorf("EPCUsed after double Destroy = %d, want 0", got)
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	secret := []byte("sensitive state blob")
	sealed, err := e.Seal(nil, secret, nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if bytes.Contains(sealed, secret) {
		t.Error("sealed blob contains plaintext")
	}
	got, err := e.Unseal(nil, sealed, nil)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("Unseal = %q, want %q", got, secret)
	}
	// The associated data is bound: unsealing under other data fails.
	bound, err := e.Seal(nil, secret, []byte("tag A"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := e.Unseal(nil, bound, []byte("tag B")); !errors.Is(err, ErrUnsealFailed) {
		t.Errorf("Unseal under other associated data = %v, want ErrUnsealFailed", err)
	}
	if got, err := e.Unseal(nil, bound, []byte("tag A")); err != nil || !bytes.Equal(got, secret) {
		t.Errorf("Unseal = %q, %v; want %q", got, err, secret)
	}
}

// TestSealAppendsInPlace seals data that sits after a nonce slot at
// the end of dst: the output must extend dst in its own array, keep
// dst's prefix, leave no plaintext behind and unseal to the data.
func TestSealAppendsInPlace(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	prefix, secret := []byte("hdr"), []byte("sensitive state blob")
	buf := make([]byte, 0, len(prefix)+SealOverhead+len(secret))
	buf = append(append(append(buf, prefix...), make([]byte, SealNonceSize)...), secret...)
	out, err := e.Seal(buf[:len(prefix)], buf[len(prefix)+SealNonceSize:], nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if &out[0] != &buf[0] || len(out) != cap(buf) {
		t.Fatal("Seal did not seal in place")
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || bytes.Contains(out, secret) {
		t.Fatal("in-place Seal lost the prefix or left plaintext")
	}
	if got, err := e.Unseal(nil, out[len(prefix):], nil); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("Unseal = %q, %v; want %q", got, err, secret)
	}
}

// TestSealConcurrent seals and unseals on one enclave from several
// goroutines at once: they all share the enclave's one AEAD, which must
// therefore hold no per-call state. Run it under -race.
func TestSealConcurrent(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g byte) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				secret := bytes.Repeat([]byte{g, byte(i)}, 64)
				sealed, err := e.Seal(nil, secret, nil)
				if err != nil {
					t.Errorf("Seal: %v", err)
					return
				}
				if got, err := e.Unseal(nil, sealed, nil); err != nil || !bytes.Equal(got, secret) {
					t.Errorf("Unseal = %v; want the sealed bytes back", err)
					return
				}
			}
		}(byte(g))
	}
	wg.Wait()
}

func TestSealBoundToMeasurement(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e1, _ := p.Create("a", []byte("code v1"))
	e2, _ := p.Create("b", []byte("code v2"))
	sealed, err := e1.Seal(nil, []byte("secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := e2.Unseal(nil, sealed, nil); !errors.Is(err, ErrUnsealFailed) {
		t.Errorf("cross-enclave Unseal = %v, want ErrUnsealFailed", err)
	}
}

func TestSealBoundToPlatform(t *testing.T) {
	code := []byte("same code")
	p1 := newTestPlatform(t, Config{})
	p2 := newTestPlatform(t, Config{})
	e1, _ := p1.Create("a", code)
	e2, _ := p2.Create("a", code)
	sealed, err := e1.Seal(nil, []byte("secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := e2.Unseal(nil, sealed, nil); !errors.Is(err, ErrUnsealFailed) {
		t.Errorf("cross-platform Unseal = %v, want ErrUnsealFailed", err)
	}
}

func TestSealTamperDetected(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	sealed, err := e.Seal(nil, []byte("secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	sealed[len(sealed)-1] ^= 0x01
	if _, err := e.Unseal(nil, sealed, nil); !errors.Is(err, ErrUnsealFailed) {
		t.Errorf("tampered Unseal = %v, want ErrUnsealFailed", err)
	}
	if _, err := e.Unseal(nil, sealed[:4], nil); !errors.Is(err, ErrUnsealFailed) {
		t.Errorf("truncated Unseal = %v, want ErrUnsealFailed", err)
	}
}

func TestLocalAttestation(t *testing.T) {
	p := newTestPlatform(t, Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))

	data := []byte("channel public key bytes")
	rep := app.Report(store.Measurement(), data)
	if err := store.VerifyReport(rep); err != nil {
		t.Fatalf("VerifyReport: %v", err)
	}
	if rep.Measurement != app.Measurement() {
		t.Error("report does not carry the reporting enclave's measurement")
	}
	if !bytes.Equal(rep.Data[:len(data)], data) {
		t.Error("report data not embedded")
	}
}

func TestAttestationRejectsWrongTarget(t *testing.T) {
	p := newTestPlatform(t, Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))
	other, _ := p.Create("other", []byte("other code"))

	rep := app.Report(store.Measurement(), nil)
	if err := other.VerifyReport(rep); !errors.Is(err, ErrAttestation) {
		t.Errorf("VerifyReport at wrong target = %v, want ErrAttestation", err)
	}
}

func TestAttestationRejectsTamper(t *testing.T) {
	p := newTestPlatform(t, Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))

	rep := app.Report(store.Measurement(), []byte("pubkey"))
	rep.Data[0] ^= 0xff
	if err := store.VerifyReport(rep); !errors.Is(err, ErrAttestation) {
		t.Errorf("tampered VerifyReport = %v, want ErrAttestation", err)
	}
}

func TestAttestationRejectsCrossPlatform(t *testing.T) {
	code := []byte("store code")
	p1 := newTestPlatform(t, Config{})
	p2 := newTestPlatform(t, Config{})
	app, _ := p1.Create("app", []byte("app code"))
	store1, _ := p1.Create("store", code)
	store2, _ := p2.Create("store", code)

	rep := app.Report(store1.Measurement(), nil)
	if err := store2.VerifyReport(rep); !errors.Is(err, ErrAttestation) {
		t.Errorf("cross-platform VerifyReport = %v, want ErrAttestation", err)
	}
}

func TestReportMarshalRoundTrip(t *testing.T) {
	p := newTestPlatform(t, Config{})
	app, _ := p.Create("app", []byte("app code"))
	store, _ := p.Create("store", []byte("store code"))
	rep := app.Report(store.Measurement(), []byte("hello"))

	got, err := UnmarshalReport(rep.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalReport: %v", err)
	}
	if got != rep {
		t.Errorf("round trip mismatch: got %+v want %+v", got, rep)
	}
	if _, err := UnmarshalReport([]byte("short")); err == nil {
		t.Error("UnmarshalReport accepted malformed input")
	}
}

func TestConcurrentAllocECall(t *testing.T) {
	p := newTestPlatform(t, Config{})
	e, _ := p.Create("app", []byte("code"))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := e.Alloc(64); err != nil {
					t.Errorf("Alloc: %v", err)
					return
				}
				_ = e.ECall(func() error { return nil })
				e.Free(64)
			}
		}()
	}
	wg.Wait()
	if got := e.HeapUsed(); got != 0 {
		t.Errorf("HeapUsed after balanced alloc/free = %d, want 0", got)
	}
	if got := e.Metrics().ECalls; got != 1600 {
		t.Errorf("ECalls = %d, want 1600", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	p := newTestPlatform(t, Config{})
	cfg := p.Config()
	if cfg.EPCBytes != DefaultEPCBytes {
		t.Errorf("EPCBytes = %d, want %d", cfg.EPCBytes, DefaultEPCBytes)
	}
	if cfg.EPCUsableBytes != DefaultEPCUsableBytes {
		t.Errorf("EPCUsableBytes = %d, want %d", cfg.EPCUsableBytes, DefaultEPCUsableBytes)
	}
	if cfg.TransitionCost != DefaultTransitionCost {
		t.Errorf("TransitionCost = %v, want %v", cfg.TransitionCost, DefaultTransitionCost)
	}
	if cfg.PagingCost != DefaultPagingCost {
		t.Errorf("PagingCost = %v, want %v", cfg.PagingCost, DefaultPagingCost)
	}
}
