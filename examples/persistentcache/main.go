// Persistentcache: demonstrates the extension features — controlled
// deduplication (deny-by-default authorization), a store data
// directory that survives a process "restart" on the same machine, and
// adaptive
// deduplication that learns to bypass the store for functions where
// deduplication does not pay.
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

func newApp(sys *speed.System) (*speed.App, *speed.Deduplicable[[]byte, []byte], *speed.Deduplicable[string, string], error) {
	app, err := sys.NewAppWithConfig("compress-service", []byte("compress service v5"), speed.AppConfig{
		Adaptive:           true,
		AdaptiveMinSamples: 5,
	})
	if err != nil {
		return nil, nil, nil, err
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
		return nil, nil, nil, err
	}
	// A trivially cheap function the adaptive advisor should learn to
	// bypass.
	upper, err := speed.NewDeduplicable(app,
		speed.FuncDesc{Library: "zlib", Version: "1.2.11", Signature: "toupper(string)"},
		func(s string) (string, error) { return strings.ToUpper(s), nil },
		speed.WithInputCodec[string, string](speed.StringCodec{}),
		speed.WithOutputCodec[string, string](speed.StringCodec{}),
	)
	if err != nil {
		return nil, nil, nil, err
	}
	return app, deflate, upper, nil
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
	app1, deflate1, upper1, err := newApp(sys1)
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

	// The cheap function, called on distinct inputs: the advisor
	// learns to bypass it.
	for i := 0; i < 30; i++ {
		if _, err := upper1.Call(fmt.Sprintf("request-%d", i)); err != nil {
			return err
		}
	}
	if report, ok := upper1.AdaptiveReport(); ok {
		fmt.Printf("adaptive: toupper bypassed=%v (compute %.3fms vs overhead %.3fms, hit rate %.0f%%)\n",
			report.Bypassed, report.ComputeMS, report.OverheadMS, report.HitRate*100)
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

	app2, deflate2, _, err := newApp(sys2)
	if err != nil {
		return err
	}
	defer app2.Close()

	fmt.Println("lifetime 2: compressing the same 3 documents")
	for i := 0; i < 3; i++ {
		input := append([]byte(fmt.Sprintf("doc-%d:", i)), doc...)
		if _, outcome, err := deflate2.CallOutcome(input); err != nil {
			return err
		} else {
			fmt.Printf("  doc %d: %v\n", i, outcome)
		}
	}
	fmt.Printf("\nlifetime 2 stats: %+v\n", app2.Stats())
	fmt.Printf("store: %+v\n", sys2.StoreStats())
	return nil
}
