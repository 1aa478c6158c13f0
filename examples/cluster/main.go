// Cluster: demonstrates the multi-node ResultStore tier — three store
// servers behind a consistent-hash ring, an application Runtime routing
// GET/PUT traffic through the cluster client with replication, and a
// member killed mid-run with zero failed calls. The cluster converges
// by write-time replication plus read-repair: a hit found away from its
// primary is copied back there, counted as read_repairs.
//
// Everything runs in one process for the demo, but each member is a
// real resultstore server behind a real TCP listener — the same
// deployment as three `resultstore` processes on three machines.
package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"speed/internal/cluster"
	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
}

func run() error {
	platform := enclave.NewPlatform(enclave.Config{})
	appEnc, err := platform.Create("demo-app", []byte("demo app v1"))
	if err != nil {
		return err
	}

	// Three members, all running the same store code: distinct enclave
	// names, one shared measurement for the client to pin.
	storeCode := []byte("resultstore v1")
	var (
		addrs     []string
		servers   []*store.Server
		storeMeas enclave.Measurement
	)
	for i := 0; i < 3; i++ {
		enc, err := platform.Create(fmt.Sprintf("resultstore-%d", i), storeCode)
		if err != nil {
			return err
		}
		storeMeas = enc.Measurement()
		st, err := store.New(store.Config{Enclave: enc})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := store.NewServer(st, ln, store.WithLogf(func(string, ...any) {}))
		go func() { _ = srv.Serve() }()
		servers = append(servers, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	defer func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
	}()
	fmt.Printf("ring members: %v (measurement %x...)\n", addrs, storeMeas[:4])

	client, err := cluster.New(cluster.Config{
		Nodes:            addrs,
		Replicas:         2,
		App:              appEnc,
		StoreMeasurement: storeMeas,
		Logf:             func(format string, args ...any) { fmt.Printf("  [cluster] "+format+"\n", args...) },
		Remote:           dedup.RemoteConfig{RequestTimeout: time.Second},
	})
	if err != nil {
		return err
	}
	defer client.Close()

	rt, err := dedup.NewRuntime(dedup.Config{Enclave: appEnc, Client: client})
	if err != nil {
		return err
	}
	defer rt.Close()
	rt.Registry().RegisterLibrary("imglib", "2.0", []byte("imglib code"))
	id, err := rt.Resolve(dedup.FuncDesc{Library: "imglib", Version: "2.0", Signature: "thumbnail(img)"})
	if err != nil {
		return err
	}
	thumbnail := func(in []byte) ([]byte, error) {
		time.Sleep(2 * time.Millisecond) // pretend this is expensive
		return append([]byte("thumb:"), in...), nil
	}

	inputs := make([][]byte, 16)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("image-%d.png", i))
	}
	pass := func(name string) error {
		before := rt.Stats()
		start := time.Now()
		results, err := rt.ExecuteBatch(id, inputs, thumbnail)
		if err != nil {
			return err
		}
		failed := 0
		for _, r := range results {
			if r.Err != nil {
				failed++
			}
		}
		after := rt.Stats()
		fmt.Printf("%-28s reused=%2d computed=%2d failed=%d nodes_up=%d in %s\n",
			name+":", after.Reused-before.Reused, after.Computed-before.Computed,
			failed, client.NodesUp(), time.Since(start).Round(time.Millisecond))
		return nil
	}

	if err := pass("first pass (all fresh)"); err != nil {
		return err
	}
	if err := pass("second pass (ring hits)"); err != nil {
		return err
	}

	// Kill one member. Every tag keeps a live replica, so every call
	// keeps succeeding: the member's transport marks it down on its first
	// failed request, and the router fails over.
	fmt.Printf("\nkilling member %s\n", addrs[0])
	if err := servers[0].Close(); err != nil {
		return err
	}
	if err := pass("after kill (failover)"); err != nil {
		return err
	}
	if err := pass("steady state (2 members)"); err != nil {
		return err
	}
	fmt.Printf("failovers=%d read_repairs=%d\n", client.Failovers(), client.ReadRepairs())
	return nil
}
