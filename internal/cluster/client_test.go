package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

func ctag(s string) mle.Tag {
	h := sha256.Sum256([]byte("cluster-test-" + s))
	var t mle.Tag
	copy(t[:], h[:])
	return t
}

func csealed(s string) mle.Sealed {
	return mle.Sealed{
		Challenge:  []byte("challenge-" + s),
		WrappedKey: []byte("wrapped-" + s),
		Blob:       []byte("blob-" + s),
	}
}

// getOne and putOne give tests the single-call shape; the client types
// themselves are batch-only. putOne reports a rejection the way the
// runtime does, as dedup.ErrPutRejected.
func getOne(c dedup.StoreClient, tag mle.Tag) (mle.Sealed, bool, error) {
	res, err := c.Get(wire.TraceContext{}, []mle.Tag{tag})
	if err != nil {
		return mle.Sealed{}, false, err
	}
	return res[0].Sealed, res[0].Found, nil
}

func putOne(c dedup.StoreClient, tag mle.Tag, sealed mle.Sealed, replace bool) error {
	res, err := c.Put(wire.TraceContext{}, []wire.PutItem{{Tag: tag, Sealed: sealed, Replace: replace}})
	if err != nil {
		return err
	}
	if !res[0].OK {
		return fmt.Errorf("%w: %s", dedup.ErrPutRejected, res[0].Err)
	}
	return nil
}

// testNode is one ring member: its store plus the server serving it.
type testNode struct {
	st   *store.Store
	srv  *store.Server
	addr string

	mu sync.Mutex
	wg sync.WaitGroup
}

// kill shuts the member's server down (the store object survives, as a
// crashed-but-recoverable machine's disk would).
func (n *testNode) kill(t *testing.T) {
	t.Helper()
	n.mu.Lock()
	srv := n.srv
	n.srv = nil
	n.mu.Unlock()
	if srv == nil {
		return
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close server %s: %v", n.addr, err)
	}
	n.wg.Wait()
}

// restart brings the member back on its previous address with its
// previous store contents.
func (n *testNode) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		t.Fatalf("relisten %s: %v", n.addr, err)
	}
	srv := store.NewServer(n.st, ln, store.WithLogf(func(string, ...any) {}))
	n.mu.Lock()
	n.srv = srv
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = srv.Serve()
	}()
}

type testClusterEnv struct {
	app       *enclave.Enclave
	storeMeas enclave.Measurement
	nodes     []*testNode
	client    *Client
}

// hasTag checks a member's store directly, without touching the wire.
func (e *testClusterEnv) hasTag(ni int, tag mle.Tag) bool {
	_, found, _ := e.nodes[ni].st.Get(tag)
	return found
}

// startTestNodes starts n real store servers — same store code bytes
// (so one shared measurement, as in a real fleet), distinct enclave
// names — each over its own store built from storeCfg, and returns them
// with the application enclave clients connect from.
func startTestNodes(t *testing.T, n int, storeCfg store.Config) (*enclave.Enclave, enclave.Measurement, []*testNode) {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	app, err := p.Create("app", []byte("app code"))
	if err != nil {
		t.Fatalf("create app enclave: %v", err)
	}
	var storeMeas enclave.Measurement
	var nodes []*testNode
	storeCode := []byte("store code v1")
	for i := 0; i < n; i++ {
		enc, err := p.Create(fmt.Sprintf("store-%d", i), storeCode)
		if err != nil {
			t.Fatalf("create store enclave %d: %v", i, err)
		}
		storeMeas = enc.Measurement()
		storeCfg.Enclave = enc
		st, err := store.New(storeCfg)
		if err != nil {
			t.Fatalf("store.New %d: %v", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		node := &testNode{st: st, addr: ln.Addr().String()}
		srv := store.NewServer(st, ln, store.WithLogf(func(string, ...any) {}))
		node.srv = srv
		node.wg.Add(1)
		go func() {
			defer node.wg.Done()
			_ = srv.Serve()
		}()
		nodes = append(nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.kill(t)
		}
	})
	return app, storeMeas, nodes
}

// testRemote is the member transport configuration of the cluster
// tests: fast-failure timeouts, and a prober quick to find a restarted
// member.
func testRemote() dedup.RemoteConfig {
	return dedup.RemoteConfig{
		DialTimeout:    300 * time.Millisecond,
		RequestTimeout: time.Second,
		ProbeInterval:  10 * time.Millisecond,
	}
}

// waitNodeUp waits for member i's transport to report the given health.
func waitNodeUp(t *testing.T, c *Client, i int, want bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.NodeUp(i) != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("member %d never reported up=%v", i, want)
		}
	}
}

// newTestCluster starts n store servers and a cluster client over
// them. cfg.Nodes/App/StoreMeasurement are filled in; a zero cfg.Remote
// gets testRemote.
func newTestCluster(t *testing.T, n int, cfg Config) *testClusterEnv {
	t.Helper()
	return newTestClusterOver(t, n, cfg, store.Config{})
}

// newTestClusterOver is newTestCluster with each member's store built
// from storeCfg.
func newTestClusterOver(t *testing.T, n int, cfg Config, storeCfg store.Config) *testClusterEnv {
	t.Helper()
	env := &testClusterEnv{}
	env.app, env.storeMeas, env.nodes = startTestNodes(t, n, storeCfg)

	cfg.App = env.app
	cfg.StoreMeasurement = env.storeMeas
	for _, node := range env.nodes {
		cfg.Nodes = append(cfg.Nodes, node.addr)
	}
	if cfg.Remote == (dedup.RemoteConfig{}) {
		cfg.Remote = testRemote()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	client, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	env.client = client
	// Runs before startTestNodes' cleanup, so the client goes first.
	t.Cleanup(func() { _ = client.Close() })
	return env
}

func TestClusterGetPutReplicates(t *testing.T) {
	env := newTestCluster(t, 3, Config{Replicas: 2})
	tag, sealed := ctag("alpha"), csealed("alpha")

	if _, found, err := getOne(env.client, tag); err != nil || found {
		t.Fatalf("Get on empty cluster = (found=%v, %v), want miss", found, err)
	}
	if err := putOne(env.client, tag, sealed, false); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, found, err := getOne(env.client, tag)
	if err != nil || !found {
		t.Fatalf("Get = (found=%v, %v)", found, err)
	}
	if !bytes.Equal(got.Blob, sealed.Blob) {
		t.Errorf("Get blob = %q, want %q", got.Blob, sealed.Blob)
	}

	// The put must land on exactly the tag's two ring owners.
	owners := env.client.ring.owners(tag, 2)
	copies := 0
	for ni := range env.nodes {
		if env.hasTag(ni, tag) {
			copies++
			if ni != owners[0] && ni != owners[1] {
				t.Errorf("tag stored on non-owner member %d (owners %v)", ni, owners)
			}
		}
	}
	if copies != 2 {
		t.Errorf("tag stored on %d members, want 2 replicas", copies)
	}
}

func TestClusterFailoverGet(t *testing.T) {
	env := newTestCluster(t, 3, Config{Replicas: 2})
	tag, sealed := ctag("failover"), csealed("failover")
	if err := putOne(env.client, tag, sealed, false); err != nil {
		t.Fatalf("Put: %v", err)
	}
	primary := env.client.ring.owners(tag, 1)[0]
	env.nodes[primary].kill(t)

	got, found, err := getOne(env.client, tag)
	if err != nil || !found {
		t.Fatalf("Get after primary death = (found=%v, %v), want replica hit", found, err)
	}
	if !bytes.Equal(got.Blob, sealed.Blob) {
		t.Errorf("failover Get blob = %q, want %q", got.Blob, sealed.Blob)
	}
	if env.client.Failovers() == 0 {
		t.Error("failover not counted")
	}
	if env.client.NodeUp(primary) {
		t.Error("dead primary still healthy after its first failed request")
	}
	// With the primary marked down, further reads route straight to the
	// replica.
	if _, found, err := getOne(env.client, tag); err != nil || !found {
		t.Fatalf("steady-state Get after failover = (found=%v, %v)", found, err)
	}
}

// TestClusterReadRepair: a result found away from its primary is copied
// back only while the primary's transport reports it healthy. The
// failover read that finds a dead primary has just marked it down with
// its own failure, so it queues no repair; once the prober has marked
// the restarted primary up, a repair lands there and is counted.
func TestClusterReadRepair(t *testing.T) {
	env := newTestCluster(t, 2, Config{Replicas: 1})
	tag, sealed := ctag("repairme"), csealed("repairme")
	primary := env.client.ring.owners(tag, 1)[0]
	other := 1 - primary

	// The result lives only on the non-primary (e.g. it was written
	// there while the primary was down).
	if _, err := env.nodes[other].st.Put(env.app.Measurement(), tag, sealed); err != nil {
		t.Fatalf("direct put: %v", err)
	}
	env.nodes[primary].kill(t)

	_, found, err := getOne(env.client, tag)
	if err != nil || !found {
		t.Fatalf("Get = (found=%v, %v), want failover hit", found, err)
	}
	if env.client.Failovers() != 1 || env.client.NodeUp(primary) {
		t.Fatalf("failovers=%d primary up=%v, want one failover away from a primary now down",
			env.client.Failovers(), env.client.NodeUp(primary))
	}
	env.client.repairWG.Wait()
	if env.client.ReadRepairs() != 0 {
		t.Error("a read repair was sent to a primary that is down")
	}

	env.nodes[primary].restart(t)
	waitNodeUp(t, env.client, primary, true)
	env.client.repairAsync(primary, wire.TraceContext{}, []wire.PutItem{{Tag: tag, Sealed: sealed}})
	env.client.repairWG.Wait()
	if !env.hasTag(primary, tag) {
		t.Error("read repair did not copy the result back to the healthy primary")
	}
	if env.client.ReadRepairs() != 1 {
		t.Errorf("ReadRepairs = %d, want 1", env.client.ReadRepairs())
	}
}

// TestCloseDrainsReadRepairs: Close runs while failover reads are still
// handing hits to repairAsync, as Get does after a failover, to a
// healthy primary. Every repair either finishes inside Close or never
// starts, so once Close returns no member sees another PUT. The interleaving this pins: a
// read that passed repairAsync's closed check must not reach
// repairWG.Add after Close's Wait has returned, or its PUT would run on
// a member client Close has already closed. Close runs on a goroutine
// that shares nothing with the callers, so only Close's own
// synchronization orders their Adds before its Wait, and -race reports
// an Add that it does not order.
func TestCloseDrainsReadRepairs(t *testing.T) {
	app, storeMeas, nodes := startTestNodes(t, 1, store.Config{})
	primary := nodes[0]
	c, err := New(Config{
		Nodes:            []string{primary.addr},
		App:              app,
		StoreMeasurement: storeMeas,
		Remote:           testRemote(),
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var reads sync.WaitGroup
	for i := 0; i < 64; i++ {
		reads.Add(1)
		go func() {
			defer reads.Done()
			time.Sleep(time.Duration(i) * 150 * time.Microsecond)
			item := wire.PutItem{Tag: ctag(fmt.Sprintf("close-repair-%d", i)), Sealed: csealed("close-repair")}
			c.repairAsync(0, wire.TraceContext{}, []wire.PutItem{item})
		}()
	}
	closed := make(chan error, 1)
	go func() {
		// Spin rather than sleep: a sleeping goroutine is woken from the
		// runtime's timer code, through which the race detector can carry
		// other goroutines' history — enough, in most runs, to order the
		// very Adds this test needs left unordered.
		for start := time.Now(); time.Since(start) < 5*time.Millisecond; {
			runtime.Gosched()
		}
		closed <- c.Close()
	}()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	puts, repairs := primary.st.Stats().Puts, c.ReadRepairs()
	if repairs == 0 {
		t.Error("no read-repair landed while Close drained them")
	}
	reads.Wait()
	time.Sleep(50 * time.Millisecond)
	if got := primary.st.Stats().Puts; got != puts {
		t.Errorf("the primary saw %d PUTs after Close returned", got-puts)
	}
	if got := c.ReadRepairs(); got != repairs {
		t.Errorf("%d read-repairs completed after Close returned", got-repairs)
	}
}

// TestPrimaryMissReplacesEntryAfterOutage pins how the cluster converges
// after an outage, with no background sync: a result written while its
// primary was down lives only on the successor; once the primary is
// back, its miss is authoritative, so the next call recomputes once and
// the PUT places the result on its owners; the call after that is
// reused from the primary.
func TestPrimaryMissReplacesEntryAfterOutage(t *testing.T) {
	env := newTestCluster(t, 2, Config{Replicas: 2})
	rt, err := dedup.NewRuntime(dedup.Config{Enclave: env.app, Client: env.client, Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Close()
	rt.Registry().RegisterLibrary("outagelib", "1.0", []byte("outage lib"))
	id, err := rt.Resolve(dedup.FuncDesc{Library: "outagelib", Version: "1.0", Signature: "f(x)"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	input := []byte("written during the outage")
	tag := mle.ComputeTag(id, input)
	primary := env.client.ring.owners(tag, 1)[0]
	computes := 0
	compute := func(in []byte) ([]byte, error) {
		computes++
		return append([]byte("result:"), in...), nil
	}
	call := func(want dedup.Outcome) {
		t.Helper()
		res, outcome, err := rt.Execute(id, input, compute)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if outcome != want || string(res) != "result:"+string(input) {
			t.Fatalf("Execute = (%q, %v), want the result, %v", res, outcome, want)
		}
	}

	// The call's GET fails on the dead primary, which marks it down, so
	// its PUT targets the successor alone.
	env.nodes[primary].kill(t)
	call(dedup.OutcomeComputed)
	if env.client.NodeUp(primary) {
		t.Fatal("the dead primary is still healthy after failing a request")
	}
	if env.hasTag(primary, tag) || !env.hasTag(1-primary, tag) {
		t.Fatal("the outage PUT did not land on the successor alone")
	}

	env.nodes[primary].restart(t)
	waitNodeUp(t, env.client, primary, true)
	call(dedup.OutcomeComputed) // the primary's miss is authoritative
	if !env.hasTag(primary, tag) {
		t.Fatal("the recomputed PUT did not place the result on its primary")
	}
	hits := env.nodes[primary].st.Stats().Hits
	call(dedup.OutcomeReused)
	if got := env.nodes[primary].st.Stats().Hits; got != hits+1 {
		t.Errorf("primary hits %d → %d, want the reuse served by the primary", hits, got)
	}
	if computes != 2 {
		t.Errorf("computed %d times, want 2 (the outage call and one recomputation)", computes)
	}
}

// TestClusterHealthy: the cluster is healthy while any member's
// transport is. Nothing pings a healthy member, so a member goes down
// only when a request to it fails, and its own prober brings it back.
func TestClusterHealthy(t *testing.T) {
	env := newTestCluster(t, 3, Config{})
	for _, n := range env.nodes {
		n.kill(t)
	}
	if !env.client.Healthy() || env.client.NodesUp() != 3 {
		t.Fatalf("healthy=%v with %d members up before any request failed, want true and 3",
			env.client.Healthy(), env.client.NodesUp())
	}
	if _, _, err := getOne(env.client, ctag("nowhere")); err == nil {
		t.Fatal("Get succeeded with every member dead")
	}
	if env.client.Healthy() || env.client.NodesUp() != 0 {
		t.Fatalf("healthy=%v with %d members up after a read failed on every member, want false and 0",
			env.client.Healthy(), env.client.NodesUp())
	}
	env.nodes[1].restart(t)
	waitNodeUp(t, env.client, 1, true)
	if !env.client.Healthy() || env.client.NodesUp() != 1 {
		t.Errorf("healthy=%v with %d members up after one came back, want true and 1",
			env.client.Healthy(), env.client.NodesUp())
	}
}

// TestClusterSinglePutFailsOver: a one-item Put whose every write
// target is dead — but still healthy, since no request has failed on
// them yet — chases the next reachable member in failover rounds,
// exactly as a larger batch does. Each target's failure within this one
// request is what marks it down.
func TestClusterSinglePutFailsOver(t *testing.T) {
	env := newTestCluster(t, 3, Config{Replicas: 2})
	tag, sealed := ctag("orphan"), csealed("orphan")
	targets := env.client.writeTargets(tag)
	for _, ni := range targets {
		env.nodes[ni].kill(t)
	}
	survivor := 3 - targets[0] - targets[1]

	before := env.client.Failovers()
	if err := putOne(env.client, tag, sealed, false); err != nil {
		t.Fatalf("Put with both write targets dead: %v", err)
	}
	if !env.hasTag(survivor, tag) {
		t.Error("the put did not land on the surviving member")
	}
	if env.client.Failovers() <= before {
		t.Error("failover not counted")
	}
}

// TestClusterBatchGetFailoverPositional: a multi-tag Get whose tags all
// fail over to the same surviving member, from two different dead
// primaries, still answers positionally. The failover round's group
// covers the whole batch but lists it in the order the failures came
// back, not in batch order.
func TestClusterBatchGetFailoverPositional(t *testing.T) {
	env := newTestCluster(t, 3, Config{Replicas: 2})
	const survivor = 2
	// Alternate the two dead primaries through the batch, every tag with
	// the survivor as its second replica, so whichever dead member's
	// failures merge first, the second round's index list is out of order.
	var tags []mle.Tag
	for i := 0; len(tags) < 8; i++ {
		tag := ctag(fmt.Sprintf("swap-%d", i))
		owners := env.client.ring.owners(tag, 2)
		if owners[0] == len(tags)%2 && owners[1] == survivor {
			tags = append(tags, tag)
		}
	}
	for i, tag := range tags {
		if _, err := env.nodes[survivor].st.Put(env.app.Measurement(), tag, csealed(fmt.Sprintf("swap-%d", i))); err != nil {
			t.Fatalf("direct put %d: %v", i, err)
		}
	}
	env.nodes[0].kill(t)
	env.nodes[1].kill(t)

	res, err := env.client.Get(wire.TraceContext{}, tags)
	if err != nil {
		t.Fatalf("Get with both primaries dead: %v", err)
	}
	for i, r := range res {
		want := csealed(fmt.Sprintf("swap-%d", i))
		if !r.Found || !bytes.Equal(r.Sealed.Blob, want.Blob) {
			t.Errorf("result %d = (found=%v, blob %q), want %q", i, r.Found, r.Sealed.Blob, want.Blob)
		}
	}
}

// TestClusterRuntimeFaultInjection is the headline guarantee: a
// Runtime doing batched Executes over a 3-node ring keeps succeeding —
// zero failed calls — while one member is killed mid-run, and the hit
// rate recovers once the router fails over to the replicas.
func TestClusterRuntimeFaultInjection(t *testing.T) {
	env := newTestCluster(t, 3, Config{Replicas: 2})
	rt, err := dedup.NewRuntime(dedup.Config{
		Enclave: env.app,
		Client:  env.client,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Close()
	rt.Registry().RegisterLibrary("clusterlib", "1.0", []byte("cluster lib"))
	id, err := rt.Resolve(dedup.FuncDesc{Library: "clusterlib", Version: "1.0", Signature: "f(x)"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	compute := func(in []byte) ([]byte, error) {
		out := make([]byte, len(in))
		for i, b := range in {
			out[i] = b ^ 0x5A
		}
		return out, nil
	}
	inputs := make([][]byte, 32)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("cluster-input-%d", i))
	}
	pass := func() {
		t.Helper()
		results, err := rt.ExecuteBatch(id, inputs, compute)
		if err != nil {
			t.Fatalf("ExecuteBatch: %v", err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("item %d failed: %v", i, r.Err)
			}
		}
	}

	pass() // warm the ring
	before := rt.Stats()
	pass()
	warm := rt.Stats()
	if reused := warm.Reused - before.Reused; reused != int64(len(inputs)) {
		t.Fatalf("pre-kill pass reused %d/%d", reused, len(inputs))
	}

	env.nodes[0].kill(t)
	for i := 0; i < 5; i++ {
		pass() // mid-outage passes: zero failures required
	}
	mid := rt.Stats()
	pass()
	after := rt.Stats()
	if reused := after.Reused - mid.Reused; reused < int64(len(inputs)*9/10) {
		t.Errorf("post-kill hit rate did not recover: reused %d/%d", reused, len(inputs))
	}
}
