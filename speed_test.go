package speed

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystemWithConfig(SystemConfig{DisableSGXCosts: true})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func newTestApp(t *testing.T, sys *System, name string) *App {
	t.Helper()
	app, err := sys.NewApp(name, []byte(name+" code"))
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	t.Cleanup(func() { _ = app.Close() })
	app.RegisterLibrary("mathlib", "1.0", []byte("mathlib code"))
	return app
}

var squareDesc = FuncDesc{Library: "mathlib", Version: "1.0", Signature: "int square(int)"}

func TestDeduplicableBasicReuse(t *testing.T) {
	sys := newTestSystem(t)
	app := newTestApp(t, sys, "app")

	var calls atomic.Int64
	square, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) {
		calls.Add(1)
		return x * x, nil
	})
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}

	got, outcome, err := square.CallOutcome(12)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != 144 || outcome != OutcomeComputed {
		t.Errorf("first call = (%d, %v), want (144, computed)", got, outcome)
	}

	got, outcome, err = square.CallOutcome(12)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got != 144 || outcome != OutcomeReused {
		t.Errorf("second call = (%d, %v), want (144, reused)", got, outcome)
	}
	if calls.Load() != 1 {
		t.Errorf("function ran %d times, want 1", calls.Load())
	}

	if got, err := square.Call(5); err != nil || got != 25 {
		t.Errorf("Call(5) = (%d, %v), want 25", got, err)
	}

	st := app.Stats()
	if st.Calls != 3 || st.Reused != 1 || st.Computed != 2 {
		t.Errorf("Stats = %+v, want 3 calls, 1 reused, 2 computed", st)
	}
}

func TestDeduplicableRequiresRegisteredLibrary(t *testing.T) {
	sys := newTestSystem(t)
	app, err := sys.NewApp("bare", []byte("bare code"))
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	defer app.Close()

	_, err = NewDeduplicable(app, squareDesc, func(x int) (int, error) { return x, nil })
	if err == nil {
		t.Error("NewDeduplicable accepted an unregistered library")
	}
}

func TestDeduplicableNilFunc(t *testing.T) {
	sys := newTestSystem(t)
	app := newTestApp(t, sys, "app")
	if _, err := NewDeduplicable[int, int](app, squareDesc, nil); err == nil {
		t.Error("NewDeduplicable accepted nil function")
	}
}

func TestDeduplicableErrorPropagates(t *testing.T) {
	sys := newTestSystem(t)
	app := newTestApp(t, sys, "app")
	wantErr := errors.New("domain failure")
	f, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) {
		return 0, wantErr
	})
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	if _, err := f.Call(1); !errors.Is(err, wantErr) {
		t.Errorf("Call = %v, want %v", err, wantErr)
	}
}

func TestDeduplicableCallBatch(t *testing.T) {
	sys := newTestSystem(t)
	app := newTestApp(t, sys, "app")
	const failing = 7
	wantErr := errors.New("domain failure")
	var calls atomic.Int64
	square, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) {
		calls.Add(1)
		if x == failing {
			return 0, wantErr
		}
		return x * x, nil
	})
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}

	// The last input repeats the first: computed once, shared in-batch.
	res, err := square.CallBatch([]int{2, 3, failing, 2})
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	want := []BatchCallResult[int]{
		{Out: 4, Outcome: OutcomeComputed},
		{Out: 9, Outcome: OutcomeComputed},
		{Err: wantErr},
		{Out: 4, Outcome: OutcomeCoalesced},
	}
	if len(res) != len(want) {
		t.Fatalf("CallBatch returned %d results for %d inputs", len(res), len(want))
	}
	for i, r := range res {
		if !errors.Is(r.Err, want[i].Err) || r.Out != want[i].Out || r.Outcome != want[i].Outcome {
			t.Errorf("result %d = %+v, want %+v", i, r, want[i])
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("function ran %d times, want 3 (the duplicate shares its leader's run)", n)
	}

	ins := []int{2, 3}
	again, err := square.CallBatch(ins)
	if err != nil {
		t.Fatalf("repeated CallBatch: %v", err)
	}
	for i, r := range again {
		single, err := square.Call(ins[i])
		if err != nil {
			t.Fatalf("Call(%d): %v", ins[i], err)
		}
		if r.Err != nil || r.Outcome != OutcomeReused || r.Out != single {
			t.Errorf("repeated result %d = %+v, want reused %d", i, r, single)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("function ran %d times after the repeated batch, want 3", n)
	}
}

func TestDeduplicableBytesCodec(t *testing.T) {
	sys := newTestSystem(t)
	app := newTestApp(t, sys, "app")
	rev, err := NewDeduplicable(app,
		FuncDesc{Library: "mathlib", Version: "1.0", Signature: "bytes reverse(bytes)"},
		func(b []byte) ([]byte, error) {
			out := make([]byte, len(b))
			for i, c := range b {
				out[len(b)-1-i] = c
			}
			return out, nil
		},
		WithInputCodec[[]byte, []byte](BytesCodec{}),
		WithOutputCodec[[]byte, []byte](BytesCodec{}),
	)
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	got, err := rev.Call([]byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(got) != "olleh" {
		t.Errorf("Call = %q, want %q", got, "olleh")
	}
	got2, outcome, err := rev.CallOutcome([]byte("hello"))
	if err != nil || outcome != OutcomeReused || !bytes.Equal(got, got2) {
		t.Errorf("reuse = (%q, %v, %v), want identical reused result", got2, outcome, err)
	}
}

func TestDeduplicableStructTypes(t *testing.T) {
	type Point struct{ X, Y int }
	type Dist struct{ D2 int }

	sys := newTestSystem(t)
	app := newTestApp(t, sys, "app")
	dist, err := NewDeduplicable(app,
		FuncDesc{Library: "mathlib", Version: "1.0", Signature: "Dist dist(Point)"},
		func(p Point) (Dist, error) {
			return Dist{D2: p.X*p.X + p.Y*p.Y}, nil
		})
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	got, err := dist.Call(Point{3, 4})
	if err != nil || got.D2 != 25 {
		t.Errorf("Call = (%+v, %v), want D2=25", got, err)
	}
	_, outcome, err := dist.CallOutcome(Point{3, 4})
	if err != nil || outcome != OutcomeReused {
		t.Errorf("reuse = (%v, %v), want reused", outcome, err)
	}
}

// Two distinct applications deduplicate across each other when they own
// the same library — the headline cross-application property.
func TestCrossApplicationDeduplication(t *testing.T) {
	sys := newTestSystem(t)
	appA := newTestApp(t, sys, "appA")
	appB := newTestApp(t, sys, "appB")

	mk := func(app *App, calls *atomic.Int64) *Deduplicable[string, string] {
		f, err := NewDeduplicable(app,
			FuncDesc{Library: "mathlib", Version: "1.0", Signature: "string upper(string)"},
			func(s string) (string, error) {
				calls.Add(1)
				return strings.ToUpper(s), nil
			},
			WithInputCodec[string, string](StringCodec{}),
			WithOutputCodec[string, string](StringCodec{}),
		)
		if err != nil {
			t.Fatalf("NewDeduplicable: %v", err)
		}
		return f
	}
	var callsA, callsB atomic.Int64
	fA := mk(appA, &callsA)
	fB := mk(appB, &callsB)

	if got, err := fA.Call("hello"); err != nil || got != "HELLO" {
		t.Fatalf("A Call = (%q, %v)", got, err)
	}
	got, outcome, err := fB.CallOutcome("hello")
	if err != nil {
		t.Fatalf("B Call: %v", err)
	}
	if outcome != OutcomeReused || got != "HELLO" {
		t.Errorf("B = (%q, %v), want reused HELLO", got, outcome)
	}
	if callsB.Load() != 0 {
		t.Errorf("app B executed the function %d times, want 0", callsB.Load())
	}
}

func TestRemoteStoreApp(t *testing.T) {
	// The store lives in one deployment and serves over TCP; the app
	// is created against the remote address.
	storeSys := newTestSystem(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := storeSys.Serve(ln)
	t.Cleanup(func() { _ = srv.Close() })

	app, err := storeSys.NewAppWithConfig("remote-app", []byte("remote app code"), AppConfig{
		RemoteStoreAddr:        srv.Addr().String(),
		RemoteStoreMeasurement: storeSys.StoreMeasurement(),
	})
	if err != nil {
		t.Fatalf("NewAppWithConfig: %v", err)
	}
	defer app.Close()
	app.RegisterLibrary("mathlib", "1.0", []byte("mathlib code"))

	f, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	if got, err := f.Call(7); err != nil || got != 49 {
		t.Fatalf("Call = (%d, %v), want 49", got, err)
	}
	if _, outcome, err := f.CallOutcome(7); err != nil || outcome != OutcomeReused {
		t.Errorf("remote reuse = (%v, %v), want reused", outcome, err)
	}
	if got := storeSys.StoreStats().Entries; got != 1 {
		t.Errorf("store entries = %d, want 1", got)
	}
}

func TestQuotaEnforcedThroughAPI(t *testing.T) {
	sys, err := NewSystemWithConfig(SystemConfig{
		DisableSGXCosts:     true,
		QuotaMaxBytesPerApp: 8,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	app, err := sys.NewApp("quota-app", []byte("quota code"))
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	defer app.Close()
	app.RegisterLibrary("mathlib", "1.0", []byte("mathlib code"))

	big, err := NewDeduplicable(app,
		FuncDesc{Library: "mathlib", Version: "1.0", Signature: "bytes big(bytes)"},
		func(b []byte) ([]byte, error) { return bytes.Repeat(b, 100), nil },
		WithInputCodec[[]byte, []byte](BytesCodec{}),
		WithOutputCodec[[]byte, []byte](BytesCodec{}),
	)
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	// The call succeeds (the caller always gets its result) but the
	// upload is rejected by quota, so nothing is stored.
	if _, err := big.Call([]byte("x")); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := sys.StoreStats().PutDenied; got != 1 {
		t.Errorf("PutDenied = %d, want 1", got)
	}
	if got := app.Stats().PutErrors; got != 1 {
		t.Errorf("PutErrors = %d, want 1", got)
	}
}

func TestSystemEPCTracking(t *testing.T) {
	sys := newTestSystem(t)
	app := newTestApp(t, sys, "app")
	f, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	if _, err := f.Call(2); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if got := sys.EPCUsed(); got <= 0 {
		t.Errorf("EPCUsed = %d, want > 0 (metadata entry resident)", got)
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	t.Run("bytes", func(t *testing.T) {
		prop := func(b []byte) bool {
			enc, err := BytesCodec{}.Encode(b)
			if err != nil {
				return false
			}
			dec, err := BytesCodec{}.Decode(enc)
			return err == nil && bytes.Equal(dec, b)
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("string", func(t *testing.T) {
		prop := func(s string) bool {
			enc, err := StringCodec{}.Encode(s)
			if err != nil {
				return false
			}
			dec, err := StringCodec{}.Decode(enc)
			return err == nil && dec == s
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("gob", func(t *testing.T) {
		type rec struct {
			A int
			B string
			C []float64
		}
		prop := func(a int, b string, c []float64) bool {
			v := rec{A: a, B: b, C: c}
			enc, err := GobCodec[rec]{}.Encode(v)
			if err != nil {
				return false
			}
			dec, err := GobCodec[rec]{}.Decode(enc)
			if err != nil || dec.A != v.A || dec.B != v.B || len(dec.C) != len(v.C) {
				return false
			}
			for i := range v.C {
				if dec.C[i] != v.C[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
			t.Error(err)
		}
	})
	t.Run("json", func(t *testing.T) {
		type rec struct {
			A int               `json:"a"`
			M map[string]string `json:"m"`
		}
		v := rec{A: 7, M: map[string]string{"k1": "v1", "k2": "v2"}}
		enc, err := JSONCodec[rec]{}.Encode(v)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		// JSON map encoding is deterministic (sorted keys): encoding
		// twice must match, a requirement for stable tags.
		enc2, err := JSONCodec[rec]{}.Encode(rec{A: 7, M: map[string]string{"k2": "v2", "k1": "v1"}})
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Error("JSON encoding of equal maps differs")
		}
		dec, err := JSONCodec[rec]{}.Decode(enc)
		if err != nil || dec.A != 7 || dec.M["k1"] != "v1" {
			t.Errorf("Decode = (%+v, %v)", dec, err)
		}
	})
}

func TestGobCodecDecodeError(t *testing.T) {
	if _, err := (GobCodec[int]{}).Decode([]byte("not gob")); err == nil {
		t.Error("Decode accepted garbage")
	}
}

func TestDuplicateAppNameRejected(t *testing.T) {
	sys := newTestSystem(t)
	if _, err := sys.NewApp("dup", []byte("c")); err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	if _, err := sys.NewApp("dup", []byte("c")); err == nil {
		t.Error("duplicate app name accepted")
	}
}
