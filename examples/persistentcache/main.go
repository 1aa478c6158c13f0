// Persistentcache: demonstrates controlled deduplication
// (deny-by-default authorization) and a store data directory that
// survives a process "restart" on the same machine. It exits non-zero
// unless the second lifetime reuses every document without computing.
package main

import (
	"fmt"
	"os"
	"strings"

	"speed"
	"speed/internal/compress"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "persistentcache:", err)
		os.Exit(1)
	}
}

const machineSeed = "rack42-node7" // the machine's identity (fused key analogue)

// newSystem opens a deployment whose ResultStore lives in dataDir (the
// persistent log engine); the same seed and directory reopen the same
// store.
func newSystem(dataDir string) (*speed.System, error) {
	return speed.NewSystemWithConfig(speed.SystemConfig{
		PlatformSeed:  []byte(machineSeed),
		StoreDataDir:  dataDir,
		DenyByDefault: true, // controlled deduplication
	})
}

func newApp(sys *speed.System) (*speed.App, *speed.Deduplicable[[]byte, []byte], error) {
	app, err := sys.NewApp("compress-service", []byte("compress service v5"))
	if err != nil {
		return nil, nil, err
	}
	// Grant this (attested) application access to the store.
	sys.Authorize(app.Measurement(), true, true)
	app.RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))

	deflate, err := speed.NewDeduplicable(app,
		speed.FuncDesc{Library: "zlib", Version: "1.2.11", Signature: "deflate(bytes)"},
		func(b []byte) ([]byte, error) { return compress.Compress(b), nil },
		speed.WithInputCodec[[]byte, []byte](speed.BytesCodec{}),
		speed.WithOutputCodec[[]byte, []byte](speed.BytesCodec{}),
	)
	if err != nil {
		return nil, nil, err
	}
	return app, deflate, nil
}

func run() error {
	dataDir, err := os.MkdirTemp("", "speed-persistentcache-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	// ---- First "process lifetime" ----
	sys1, err := newSystem(dataDir)
	if err != nil {
		return err
	}
	app1, deflate1, err := newApp(sys1)
	if err != nil {
		return err
	}

	doc := []byte(strings.Repeat("all work and no play makes jack a dull boy. ", 4000))
	fmt.Println("lifetime 1: compressing 3 documents (all fresh)")
	for i := 0; i < 3; i++ {
		input := append([]byte(fmt.Sprintf("doc-%d:", i)), doc...)
		if _, outcome, err := deflate1.CallOutcome(input); err != nil {
			return err
		} else {
			fmt.Printf("  doc %d: %v\n", i, outcome)
		}
	}

	if err := app1.Close(); err != nil {
		return err
	}
	sys1.Close()
	fmt.Printf("lifetime 1 ended; store closed on %s\n\n", dataDir)

	// ---- Second "process lifetime" on the same machine ----
	sys2, err := newSystem(dataDir)
	if err != nil {
		return err
	}
	defer sys2.Close()
	fmt.Printf("lifetime 2: reopened the store with %d entries\n", sys2.StoreStats().Entries)

	app2, deflate2, err := newApp(sys2)
	if err != nil {
		return err
	}
	defer app2.Close()

	fmt.Println("lifetime 2: compressing the same 3 documents")
	for i := 0; i < 3; i++ {
		input := append([]byte(fmt.Sprintf("doc-%d:", i)), doc...)
		_, outcome, err := deflate2.CallOutcome(input)
		if err != nil {
			return err
		}
		fmt.Printf("  doc %d: %v\n", i, outcome)
		if outcome != speed.OutcomeReused {
			return fmt.Errorf("lifetime 2 served doc %d %v, want reused", i, outcome)
		}
	}
	st := app2.Stats()
	fmt.Printf("\nlifetime 2 stats: %+v\n", st)
	fmt.Printf("store: %+v\n", sys2.StoreStats())
	if st.Computed != 0 {
		return fmt.Errorf("lifetime 2 computed %d results, want 0", st.Computed)
	}
	return nil
}
