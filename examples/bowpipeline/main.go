// Bowpipeline: the Case 4 scenario — bag-of-words over web-page
// corpora on the MapReduce substrate, in an incremental-processing
// pipeline. A nightly job recomputes BoW per corpus shard; shards that
// did not change since the last run are answered from the store.
// Demonstrates the JSON codec for a map-valued result.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"speed"
	"speed/internal/mapreduce"
	"speed/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bowpipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	sys, err := speed.NewSystem()
	if err != nil {
		return err
	}
	defer sys.Close()

	app, err := sys.NewApp("bow-pipeline", []byte("bow pipeline v2"))
	if err != nil {
		return err
	}
	defer app.Close()
	app.RegisterLibrary("mapreduce", "2.1", []byte("mapreduce framework code"))

	bow, err := speed.NewDeduplicable(app,
		speed.FuncDesc{Library: "mapreduce", Version: "2.1", Signature: "bow_mapper(corpus shard)"},
		func(shard string) (map[string]int, error) {
			return mapreduce.BagOfWords(strings.Split(shard, "\n"), 4)
		},
		speed.WithInputCodec[string, map[string]int](speed.StringCodec{}),
		speed.WithOutputCodec[string, map[string]int](speed.JSONCodec[map[string]int]{}),
	)
	if err != nil {
		return err
	}

	// Build 8 corpus shards of ~400 pages each.
	gen := workload.New(13)
	shards := make([]string, 8)
	for i := range shards {
		var b strings.Builder
		for p := 0; p < 400; p++ {
			b.WriteString(gen.WebPage(120))
			b.WriteByte('\n')
		}
		shards[i] = b.String()
	}

	runNightly := func(night string, changed map[int]bool) error {
		fmt.Printf("%s run:\n", night)
		start := time.Now()
		totalWords := 0
		for i := range shards {
			if changed[i] {
				// Simulate the shard changing: append a page.
				shards[i] += gen.WebPage(120) + "\n"
			}
			t := time.Now()
			counts, outcome, err := bow.CallOutcome(shards[i])
			if err != nil {
				return err
			}
			distinct := len(counts)
			totalWords += distinct
			fmt.Printf("  shard %d: %5d distinct words  %-8v  %v\n",
				i, distinct, outcome, time.Since(t).Round(100*time.Microsecond))
		}
		fmt.Printf("  total: %v, %d distinct words across shards\n\n",
			time.Since(start).Round(time.Millisecond), totalWords)
		return nil
	}

	// Night 1: everything is fresh. Night 2: only shards 1 and 5
	// changed; the other six are answered from the store.
	if err := runNightly("night 1", nil); err != nil {
		return err
	}
	if err := runNightly("night 2", map[int]bool{1: true, 5: true}); err != nil {
		return err
	}

	st := app.Stats()
	fmt.Printf("pipeline stats: %d calls, %d computed, %d reused\n",
		st.Calls, st.Computed, st.Reused)
	fmt.Printf("store: %+v\n", sys.StoreStats())
	return nil
}
