package integration

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"speed/internal/cluster"
	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/fleet"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/telemetry"
)

// tracedClusterEnv is a 3-node store fleet where every process — the
// application runtime and each store server — records spans into its
// own telemetry registry, as separate machines would.
type tracedClusterEnv struct {
	appReg    *telemetry.Registry
	nodeRegs  []*telemetry.Registry
	nodeAddrs []string
	storeMeas enclave.Measurement
	rt        *dedup.Runtime
	funcID    func(sig string) mle.FuncID
}

func newTracedCluster(t *testing.T, nodes int) *tracedClusterEnv {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{SimulateCosts: false})
	appEnc, err := p.Create("traced-app", []byte("traced app code"))
	if err != nil {
		t.Fatal(err)
	}
	env := &tracedClusterEnv{appReg: telemetry.NewRegistry()}
	env.appReg.SetNode("app-client")

	storeCode := []byte("traced store code v1")
	for i := 0; i < nodes; i++ {
		enc, err := p.Create(fmt.Sprintf("traced-store-%d", i), storeCode)
		if err != nil {
			t.Fatal(err)
		}
		env.storeMeas = enc.Measurement()
		reg := telemetry.NewRegistry()
		st, err := store.New(store.Config{Enclave: enc, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reg.SetNode(ln.Addr().String())
		srv := store.NewServer(st, ln,
			store.WithTelemetry(reg),
			store.WithLogf(func(string, ...any) {}))
		go func() { _ = srv.Serve() }()
		t.Cleanup(func() { _ = srv.Close(); st.Close() })
		env.nodeRegs = append(env.nodeRegs, reg)
		env.nodeAddrs = append(env.nodeAddrs, ln.Addr().String())
	}

	cc, err := cluster.New(cluster.Config{
		Nodes:            env.nodeAddrs,
		Replicas:         2,
		App:              appEnc,
		StoreMeasurement: env.storeMeas,
		Telemetry:        env.appReg,
		Logf:             func(string, ...any) {},
		Remote: dedup.RemoteConfig{
			DialTimeout:    time.Second,
			RequestTimeout: 2 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := dedup.NewRuntime(dedup.Config{
		Enclave:         appEnc,
		Client:          cc,
		Telemetry:       env.appReg,
		TraceSampleRate: 1, // sample every call
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	env.rt = rt
	rt.Registry().RegisterLibrary("tracelib", "1.0", []byte("trace lib"))
	env.funcID = func(sig string) mle.FuncID {
		id, err := rt.Resolve(dedup.FuncDesc{Library: "tracelib", Version: "1.0", Signature: sig})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	return env
}

// statuses snapshots every registry's trace ring the way speedtop's
// poller would after scraping each process.
func (env *tracedClusterEnv) statuses() []fleet.NodeStatus {
	sts := []fleet.NodeStatus{{Addr: "app-client", Events: env.appReg.Trace().Events()}}
	for i, reg := range env.nodeRegs {
		sts = append(sts, fleet.NodeStatus{Addr: env.nodeAddrs[i], Events: reg.Trace().Events()})
	}
	return sts
}

// TestDistributedTraceAcrossCluster drives sampled Execute calls
// through a real 3-node fleet and asserts the spans recorded by the
// client runtime, the cluster router, and the store servers assemble
// into one parent-linked tree per call.
func TestDistributedTraceAcrossCluster(t *testing.T) {
	env := newTracedCluster(t, 3)
	id := env.funcID("traced(x)")
	compute := func(in []byte) ([]byte, error) { return append([]byte("out:"), in...), nil }

	// First call computes and replicates the PUT; second call hits.
	for i := 0; i < 2; i++ {
		if _, _, err := env.rt.Execute(id, []byte("traced-input"), compute); err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
	}
	// Each call sends its PUT before it returns, so both calls' spans
	// are recorded by now.
	traces := fleet.Assemble(env.statuses())
	if len(traces) != 2 {
		t.Fatalf("assembled %d traces, want 2", len(traces))
	}
	for _, tr := range traces {
		if !tr.Complete() {
			t.Errorf("trace %s did not assemble: root=%v orphans=%d",
				tr.ID, tr.Root, len(tr.Orphans))
			continue
		}
		if tr.Root.Event.Name != "execute" || tr.Root.Event.Node != "app-client" {
			t.Errorf("trace %s root = %s@%s, want execute@app-client",
				tr.ID, tr.Root.Event.Name, tr.Root.Event.Node)
		}
	}

	// The computing call replicates its PUT to 2 members, so its spans
	// must span the client plus at least 2 distinct store nodes, with
	// every store span a grandchild (root -> router leg -> store).
	var computed *fleet.Trace
	for _, tr := range traces {
		if tr.Root != nil && tr.Root.Event.Outcome == "computed" {
			computed = tr
		}
	}
	if computed == nil {
		t.Fatalf("no computed-outcome trace among %d traces", len(traces))
	}
	storeNodes := make(map[string]bool)
	legOps := make(map[string]bool)
	computed.Walk(func(depth int, s *fleet.Span) {
		switch {
		case strings.HasPrefix(s.Event.Name, "route_"):
			legOps[s.Event.Name] = true
			if depth != 1 {
				t.Errorf("leg %s at depth %d, want 1", s.Event.Name, depth)
			}
		case strings.HasPrefix(s.Event.Name, "store_"):
			storeNodes[s.Event.Node] = true
			if depth != 2 {
				t.Errorf("store span %s@%s at depth %d, want 2 (root->leg->store)",
					s.Event.Name, s.Event.Node, depth)
			}
		}
	})
	if len(storeNodes) < 2 {
		t.Errorf("computed trace touched %d store nodes, want >= 2 (replicated put): %v",
			len(storeNodes), storeNodes)
	}
	if !legOps["route_get"] || !legOps["route_put"] {
		t.Errorf("computed trace legs = %v, want route_get and route_put", legOps)
	}

	// The hit call's store_get span must parent-link through its leg to
	// the root and carry queue_wait/handle phases.
	var hit *fleet.Trace
	for _, tr := range traces {
		if tr.Root != nil && tr.Root.Event.Outcome == "reused" {
			hit = tr
		}
	}
	if hit == nil {
		t.Fatal("no reused-outcome trace")
	}
	foundStoreGet := false
	hit.Walk(func(depth int, s *fleet.Span) {
		if s.Event.Name != "store_get" {
			return
		}
		foundStoreGet = true
		if s.Event.Outcome != "hit" {
			t.Errorf("store_get outcome = %q, want hit (a GET of one tag says what it found)", s.Event.Outcome)
		}
		phases := make(map[string]bool)
		for _, ph := range s.Event.Phases {
			phases[ph.Name] = true
		}
		if !phases["queue_wait"] || !phases["handle"] {
			t.Errorf("store_get phases = %v, want queue_wait and handle", s.Event.Phases)
		}
	})
	if !foundStoreGet {
		t.Error("hit trace has no store_get span")
	}
}
