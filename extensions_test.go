package speed

import (
	"fmt"
	"net"
	"testing"
)

// Tests for the extension features: controlled deduplication,
// oblivious lookups, a store data directory that survives restarts,
// and a store on another machine.

func TestControlledDeduplication(t *testing.T) {
	sys, err := NewSystemWithConfig(SystemConfig{
		DisableSGXCosts: true,
		DenyByDefault:   true,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()

	mk := func(name string) (*App, *Deduplicable[int, int]) {
		app, err := sys.NewApp(name, []byte(name+" code"))
		if err != nil {
			t.Fatalf("NewApp: %v", err)
		}
		t.Cleanup(func() { _ = app.Close() })
		app.RegisterLibrary("mathlib", "1.0", []byte("mathlib code"))
		f, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) { return x * x, nil })
		if err != nil {
			t.Fatalf("NewDeduplicable: %v", err)
		}
		return app, f
	}

	authApp, authF := mk("authorized")
	sys.Authorize(authApp.Measurement(), true, true)
	_, strangerF := mk("stranger")

	// Authorized app populates the store.
	if got, err := authF.Call(6); err != nil || got != 36 {
		t.Fatalf("authorized Call = (%d, %v)", got, err)
	}
	if sys.StoreStats().Entries != 1 {
		t.Fatal("authorized put did not land")
	}

	// Unauthorized app computes correctly but neither reads nor
	// writes the store.
	got, outcome, err := strangerF.CallOutcome(6)
	if err != nil || got != 36 {
		t.Fatalf("stranger Call = (%d, %v)", got, err)
	}
	if outcome != OutcomeComputed {
		t.Errorf("stranger outcome = %v, want computed (no store access)", outcome)
	}
	if got := sys.StoreStats().Unauthorized; got == 0 {
		t.Error("no unauthorized accesses recorded")
	}
	if sys.StoreStats().Entries != 1 {
		t.Error("stranger modified the store")
	}

	// Revocation works.
	sys.RevokeAuthorization(authApp.Measurement())
	_, outcome, err = authF.CallOutcome(6)
	if err != nil {
		t.Fatalf("revoked Call: %v", err)
	}
	if outcome != OutcomeComputed {
		t.Errorf("revoked outcome = %v, want computed", outcome)
	}
}

func TestObliviousSystem(t *testing.T) {
	sys, err := NewSystemWithConfig(SystemConfig{
		DisableSGXCosts:  true,
		ObliviousLookups: true,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	app := newTestApp(t, sys, "obl-app")
	f, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got, err := f.Call(i); err != nil || got != i*i {
			t.Fatalf("Call(%d) = (%d, %v)", i, got, err)
		}
	}
	for i := 0; i < 10; i++ {
		_, outcome, err := f.CallOutcome(i)
		if err != nil || outcome != OutcomeReused {
			t.Fatalf("oblivious reuse Call(%d) = (%v, %v)", i, outcome, err)
		}
	}
}

// restartSystem opens a deployment on dataDir under seed, as one
// process lifetime of a machine with that identity would.
func restartSystem(seed, dataDir string) (*System, error) {
	return NewSystemWithConfig(SystemConfig{
		DisableSGXCosts: true,
		PlatformSeed:    []byte(seed),
		StoreDataDir:    dataDir,
	})
}

// squareFive runs square(0..4) through a fresh app on sys and returns
// the outcomes.
func squareFive(t *testing.T, sys *System) []Outcome {
	t.Helper()
	app, err := sys.NewApp("app", []byte("app code"))
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	defer app.Close()
	app.RegisterLibrary("mathlib", "1.0", []byte("mathlib code"))
	f, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	outcomes := make([]Outcome, 5)
	for i := range outcomes {
		got, outcome, err := f.CallOutcome(i)
		if err != nil || got != i*i {
			t.Fatalf("Call(%d) = (%d, %v)", i, got, err)
		}
		outcomes[i] = outcome
	}
	return outcomes
}

func TestStoreDataDirAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	sys1, err := restartSystem("persistent-machine", dir)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	for i, o := range squareFive(t, sys1) {
		if o != OutcomeComputed {
			t.Fatalf("first lifetime Call(%d) outcome = %v, want computed", i, o)
		}
	}
	sys1.Close()

	// "Restart": same machine seed, same data directory.
	sys2, err := restartSystem("persistent-machine", dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer sys2.Close()
	for i, o := range squareFive(t, sys2) {
		if o != OutcomeReused {
			t.Errorf("Call(%d) outcome after restart = %v, want reused from the data directory", i, o)
		}
	}
}

// A data directory is bound to the machine that wrote it: another
// PlatformSeed must never be served a stored result.
func TestStoreDataDirWrongSeedRejected(t *testing.T) {
	t.Run("after a kill", func(t *testing.T) {
		dir := t.TempDir()
		sys1, err := restartSystem("machine-A", dir)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		defer sys1.Close()
		squareFive(t, sys1)
		sys1.store.Crash() // kill -9: the records are still in the sealed WAL

		if sys2, err := restartSystem("machine-B", dir); err == nil {
			sys2.Close()
			t.Fatal("a different machine opened the data directory without error")
		}
	})
	t.Run("after a clean close", func(t *testing.T) {
		// With an empty WAL nothing is unsealed at open; each sealed
		// record fails authentication when first looked up instead.
		dir := t.TempDir()
		sys1, err := restartSystem("machine-A", dir)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		squareFive(t, sys1)
		sys1.Close()

		sys2, err := restartSystem("machine-B", dir)
		if err != nil {
			return // refusing to open is also acceptable
		}
		defer sys2.Close()
		for i, o := range squareFive(t, sys2) {
			if o == OutcomeReused {
				t.Errorf("Call(%d) on a different machine reused a stored result", i)
			}
		}
	})
}

// TestCrossMachineRemoteStore: the store runs on machine A; the
// application runs on machine B and connects via remote attestation —
// the paper's "master ResultStore on a dedicated server" deployment.
func TestCrossMachineRemoteStore(t *testing.T) {
	appSys, err := NewSystemWithConfig(SystemConfig{DisableSGXCosts: true})
	if err != nil {
		t.Fatalf("NewSystem app machine: %v", err)
	}
	defer appSys.Close()

	storeSys, err := NewSystemWithConfig(SystemConfig{
		DisableSGXCosts: true,
		// The store machine trusts applications from the app machine.
		TrustedPlatforms: [][]byte{appSys.AttestationKey()},
	})
	if err != nil {
		t.Fatalf("NewSystem store machine: %v", err)
	}
	defer storeSys.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := storeSys.Serve(ln)
	defer srv.Close()

	app, err := appSys.NewAppWithConfig("remote-app", []byte("remote app code"), AppConfig{
		RemoteStoreAddr:        srv.Addr().String(),
		RemoteStoreMeasurement: storeSys.StoreMeasurement(),
		// The app machine trusts the store machine.
		TrustedStorePlatforms: [][]byte{storeSys.AttestationKey()},
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
	if got, err := f.Call(11); err != nil || got != 121 {
		t.Fatalf("Call = (%d, %v)", got, err)
	}
	if _, outcome, err := f.CallOutcome(11); err != nil || outcome != OutcomeReused {
		t.Errorf("cross-machine reuse = (%v, %v), want reused", outcome, err)
	}
	if got := storeSys.StoreStats().Entries; got != 1 {
		t.Errorf("store machine entries = %d, want 1", got)
	}
}

// TestCrossMachineRejectedWithoutTrust: without attestation trust, an
// app on another machine cannot connect at all.
func TestCrossMachineRejectedWithoutTrust(t *testing.T) {
	appSys, err := NewSystemWithConfig(SystemConfig{DisableSGXCosts: true})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer appSys.Close()
	storeSys, err := NewSystemWithConfig(SystemConfig{DisableSGXCosts: true})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer storeSys.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv := storeSys.Serve(ln)
	defer srv.Close()

	_, err = appSys.NewAppWithConfig("untrusted-app", []byte("code"), AppConfig{
		RemoteStoreAddr:        srv.Addr().String(),
		RemoteStoreMeasurement: storeSys.StoreMeasurement(),
		TrustedStorePlatforms:  [][]byte{storeSys.AttestationKey()},
		// storeSys does NOT trust appSys's platform.
	})
	if err == nil {
		t.Error("untrusted cross-machine app connected")
	}
}

func TestSystemConfigCombination(t *testing.T) {
	// All extension knobs together.
	sys, err := NewSystemWithConfig(SystemConfig{
		DisableSGXCosts:  true,
		DenyByDefault:    true,
		ObliviousLookups: true,
		PlatformSeed:     []byte("combo"),
		StoreMaxEntries:  100,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	app, err := sys.NewApp("combo-app", []byte("combo code"))
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	defer app.Close()
	sys.Authorize(app.Measurement(), true, true)
	app.RegisterLibrary("mathlib", "1.0", []byte("mathlib code"))
	f, err := NewDeduplicable(app, squareDesc, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatalf("NewDeduplicable: %v", err)
	}
	for i := 0; i < 5; i++ {
		if got, err := f.Call(3); err != nil || got != 9 {
			t.Fatalf("Call = (%d, %v)", got, err)
		}
	}
	st := app.Stats()
	if st.Reused != 4 {
		t.Errorf("Reused = %d, want 4 (authorized + oblivious path)", st.Reused)
	}
	_ = fmt.Sprintf("%v", st)
}
