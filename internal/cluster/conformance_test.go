package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"speed/internal/dedup"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/wire"
)

// The store-client conformance suite: every behaviour the runtime
// relies on from a dedup.StoreClient, checked identically against each
// deployment — the in-process client, the networked client, and the
// ring router over one member and over three members with two replicas.

// deployment is one client under test plus the stores behind it. ping
// sends the liveness probes the client's transports send while down
// (nil for the in-process client, which has none), and kill takes every
// store away.
type deployment struct {
	client dedup.StoreClient
	stores []*store.Store
	ping   func() error
	kill   func()
}

// counts sums the dictionary statistics over the deployment's stores.
func (d deployment) counts() (gets, hits, puts int64) {
	for _, st := range d.stores {
		s := st.Stats()
		gets, hits, puts = gets+s.Gets, hits+s.Hits, puts+s.Puts
	}
	return
}

func storesOf(nodes []*testNode) []*store.Store {
	stores := make([]*store.Store, len(nodes))
	for i, n := range nodes {
		stores[i] = n.st
	}
	return stores
}

func killAll(t *testing.T, nodes []*testNode) func() {
	return func() {
		for _, n := range nodes {
			n.kill(t)
		}
	}
}

// clusterDeployment pings through every member's transport.
func clusterDeployment(t *testing.T, env *testClusterEnv) deployment {
	return deployment{env.client, storesOf(env.nodes), func() error {
		for _, n := range env.client.nodes {
			if err := n.client.Ping(); err != nil {
				return err
			}
		}
		return nil
	}, killAll(t, env.nodes)}
}

var deployments = []struct {
	name string
	open func(t *testing.T, storeCfg store.Config) deployment
}{
	{"local", func(t *testing.T, storeCfg store.Config) deployment {
		app, _, nodes := startTestNodes(t, 1, storeCfg)
		return deployment{dedup.NewLocalClient(nodes[0].st, app.Measurement()), storesOf(nodes), nil, func() { nodes[0].st.Close() }}
	}},
	{"remote", func(t *testing.T, storeCfg store.Config) deployment {
		app, storeMeas, nodes := startTestNodes(t, 1, storeCfg)
		client, err := dedup.Dial(nodes[0].addr, app, storeMeas)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		t.Cleanup(func() { _ = client.Close() })
		return deployment{client, storesOf(nodes), client.Ping, killAll(t, nodes)}
	}},
	{"cluster1", func(t *testing.T, storeCfg store.Config) deployment {
		return clusterDeployment(t, newTestClusterOver(t, 1, Config{}, storeCfg))
	}},
	{"cluster3r2", func(t *testing.T, storeCfg store.Config) deployment {
		return clusterDeployment(t, newTestClusterOver(t, 3, Config{Replicas: 2}, storeCfg))
	}},
}

var conformanceChecks = []struct {
	name     string
	storeCfg store.Config
	check    func(t *testing.T, d deployment)
}{
	{"miss then hit", store.Config{}, func(t *testing.T, d deployment) {
		tag, sealed := ctag("alpha"), csealed("alpha")
		if _, found, err := getOne(d.client, tag); err != nil || found {
			t.Fatalf("Get before Put = (found=%v, %v), want a miss", found, err)
		}
		if err := putOne(d.client, tag, sealed, false); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, found, err := getOne(d.client, tag)
		if err != nil || !found {
			t.Fatalf("Get after Put = (found=%v, %v), want a hit", found, err)
		}
		if !bytes.Equal(got.Challenge, sealed.Challenge) || !bytes.Equal(got.WrappedKey, sealed.WrappedKey) || !bytes.Equal(got.Blob, sealed.Blob) {
			t.Errorf("Get = %+v, want the stored %+v", got, sealed)
		}
	}},
	{"first version wins", store.Config{}, func(t *testing.T, d deployment) {
		tag := ctag("contested")
		if err := putOne(d.client, tag, csealed("first"), false); err != nil {
			t.Fatalf("first Put: %v", err)
		}
		if err := putOne(d.client, tag, csealed("second"), false); err != nil {
			t.Fatalf("second Put: %v (a duplicate is accepted, just not installed)", err)
		}
		if got, _, err := getOne(d.client, tag); err != nil || string(got.Blob) != "blob-first" {
			t.Errorf("Get = (%q, %v), want the first version", got.Blob, err)
		}
	}},
	{"replace overwrites", store.Config{}, func(t *testing.T, d deployment) {
		tag := ctag("healed")
		if err := putOne(d.client, tag, csealed("poisoned"), false); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := putOne(d.client, tag, csealed("recomputed"), true); err != nil {
			t.Fatalf("replacing Put: %v", err)
		}
		if got, _, err := getOne(d.client, tag); err != nil || string(got.Blob) != "blob-recomputed" {
			t.Errorf("Get = (%q, %v), want the replacement", got.Blob, err)
		}
	}},
	{"a rejected put stays in its item", store.Config{MaxBytesPerApp: 512}, func(t *testing.T, d deployment) {
		items := []wire.PutItem{
			{Tag: ctag("small-a"), Sealed: csealed("a")},
			{Tag: ctag("huge"), Sealed: mle.Sealed{Blob: bytes.Repeat([]byte{0xEE}, 4096)}},
			{Tag: ctag("small-b"), Sealed: csealed("b")},
		}
		res, err := d.client.Put(wire.TraceContext{}, items)
		if err != nil {
			t.Fatalf("Put: %v (a rejection is an item's answer, not the call's error)", err)
		}
		if len(res) != len(items) {
			t.Fatalf("Put answered %d results for %d items", len(res), len(items))
		}
		if !res[0].OK || !res[2].OK {
			t.Errorf("siblings of the rejected item = %+v, %+v, want both accepted", res[0], res[2])
		}
		// The reason is the store's own text in every deployment.
		if res[1].OK || !strings.HasPrefix(res[1].Err, store.ErrQuota.Error()) {
			t.Errorf("over-quota item = %+v, want a rejection starting %q", res[1], store.ErrQuota)
		}
		got, err := d.client.Get(wire.TraceContext{}, []mle.Tag{items[0].Tag, items[1].Tag, items[2].Tag})
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !got[0].Found || got[1].Found || !got[2].Found {
			t.Errorf("found = [%v %v %v], want only the accepted siblings stored", got[0].Found, got[1].Found, got[2].Found)
		}
	}},
	{"positional above MaxBatchItems", store.Config{}, func(t *testing.T, d deployment) {
		const n = wire.MaxBatchItems + 3
		items := make([]wire.PutItem, n)
		for i := range items {
			items[i] = wire.PutItem{Tag: ctag(fmt.Sprintf("big-%d", i)), Sealed: mle.Sealed{Blob: []byte(fmt.Sprintf("payload-%d", i))}}
		}
		res, err := d.client.Put(wire.TraceContext{}, items)
		if err != nil || len(res) != n {
			t.Fatalf("Put = (%d results, %v), want %d", len(res), err, n)
		}
		for i, r := range res {
			if !r.OK {
				t.Fatalf("item %d rejected: %s", i, r.Err)
			}
		}
		// Every 500th position asks for an absent tag, and one stored
		// tag repeats at the very end, past the window boundary.
		tags := make([]mle.Tag, 0, n+1)
		for i := range items {
			if i%500 == 7 {
				tags = append(tags, ctag(fmt.Sprintf("absent-%d", i)))
			} else {
				tags = append(tags, items[i].Tag)
			}
		}
		tags = append(tags, items[0].Tag)
		want := func(i int) (string, bool) {
			switch {
			case i == n:
				return "payload-0", true
			case i%500 == 7:
				return "", false
			}
			return fmt.Sprintf("payload-%d", i), true
		}
		got, err := d.client.Get(wire.TraceContext{}, tags)
		if err != nil || len(got) != len(tags) {
			t.Fatalf("Get = (%d results, %v), want %d", len(got), err, len(tags))
		}
		for i := range tags {
			blob, found := want(i)
			if got[i].Found != found || string(got[i].Sealed.Blob) != blob {
				t.Fatalf("Get[%d] = (found=%v, %q), want (found=%v, %q)", i, got[i].Found, got[i].Sealed.Blob, found, blob)
			}
		}
	}},
	{"ping pollutes no statistics", store.Config{}, func(t *testing.T, d deployment) {
		for i := 0; i < 3; i++ {
			if d.ping != nil {
				if err := d.ping(); err != nil {
					t.Fatalf("Ping #%d: %v", i, err)
				}
			}
			if !d.client.Healthy() {
				t.Fatalf("Healthy = false after probe #%d", i)
			}
		}
		if gets, hits, puts := d.counts(); gets != 0 || hits != 0 || puts != 0 {
			t.Errorf("pings reached the dictionary: gets=%d hits=%d puts=%d", gets, hits, puts)
		}
	}},
	{"healthy", store.Config{}, func(t *testing.T, d deployment) {
		if !d.client.Healthy() {
			t.Fatal("Healthy = false on a fresh client")
		}
		if _, _, err := getOne(d.client, ctag("before")); err != nil {
			t.Fatalf("Get: %v", err)
		}
		d.kill()
		// The first request that fails tells the client; the in-process
		// client knows its store closed without one.
		_, _, _ = getOne(d.client, ctag("after"))
		if d.client.Healthy() {
			t.Error("Healthy = true once every store is gone and a request failed")
		}
	}},
	{"every method errors after Close", store.Config{}, func(t *testing.T, d deployment) {
		if err := d.client.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := d.client.Get(wire.TraceContext{}, []mle.Tag{ctag("x")}); err == nil {
			t.Error("Get succeeded after Close")
		}
		if _, err := d.client.Put(wire.TraceContext{}, []wire.PutItem{{Tag: ctag("x"), Sealed: csealed("x")}}); err == nil {
			t.Error("Put succeeded after Close")
		}
		// An empty batch makes no round trip, yet must still notice.
		if _, err := d.client.Get(wire.TraceContext{}, nil); err == nil {
			t.Error("empty Get succeeded after Close")
		}
		if _, err := d.client.Put(wire.TraceContext{}, nil); err == nil {
			t.Error("empty Put succeeded after Close")
		}
		if d.client.Healthy() {
			t.Error("Healthy = true after Close")
		}
		if err := d.client.Close(); err != nil {
			t.Errorf("second Close = %v, want nil", err)
		}
		if _, _, puts := d.counts(); puts != 0 {
			t.Errorf("a Put after Close reached the store (%d puts)", puts)
		}
	}},
}

func TestClientConformance(t *testing.T) {
	for _, dep := range deployments {
		t.Run(dep.name, func(t *testing.T) {
			for _, c := range conformanceChecks {
				t.Run(c.name, func(t *testing.T) {
					c.check(t, dep.open(t, c.storeCfg))
				})
			}
		})
	}
}

// TestGetLargerThanOneFrame: nine 8 MiB results are more than
// wire.MaxFrameSize together, yet one Get — or one Put — of all nine is
// a legal call. The store answers a prefix per reply and the client
// asks again for the rest, so every result comes back, in order, over
// connections that never break — where windows sized by item count
// alone killed the session and were retried until the caller gave up.
func TestGetLargerThanOneFrame(t *testing.T) {
	const results, size = 9, 8 << 20
	if results*size <= wire.MaxFrameSize {
		t.Fatalf("%d results of %d bytes fit one frame; the test needs more", results, size)
	}
	remoteCfg := dedup.RemoteConfig{DialTimeout: 5 * time.Second, RequestTimeout: time.Minute}

	// open also says which member a tag's GET goes to, so the test can
	// aim all nine at one store.
	type opened struct {
		client  dedup.StoreClient
		conns   []*dedup.RemoteClient
		nodes   []*testNode
		primary func(mle.Tag) int
	}
	for _, dep := range []struct {
		name string
		open func(t *testing.T) opened
	}{
		{"remote", func(t *testing.T) opened {
			app, storeMeas, nodes := startTestNodes(t, 1, store.Config{})
			client, err := dedup.DialConfig(nodes[0].addr, app, storeMeas, remoteCfg)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			t.Cleanup(func() { _ = client.Close() })
			return opened{client, []*dedup.RemoteClient{client}, nodes, func(mle.Tag) int { return 0 }}
		}},
		{"cluster3r2", func(t *testing.T) opened {
			env := newTestClusterOver(t, 3, Config{Replicas: 2, Remote: remoteCfg}, store.Config{})
			var conns []*dedup.RemoteClient
			for _, n := range env.client.nodes {
				conns = append(conns, n.client)
			}
			return opened{env.client, conns, env.nodes, func(tag mle.Tag) int { return env.client.ring.owners(tag, 1)[0] }}
		}},
	} {
		t.Run(dep.name, func(t *testing.T) {
			d := dep.open(t)
			client, conns := d.client, d.conns
			var tags []mle.Tag
			for n := 0; len(tags) < results; n++ {
				tag := ctag(fmt.Sprintf("large-%d", n))
				if d.primary(tag) != d.primary(ctag("large-0")) {
					continue
				}
				i := len(tags)
				tags = append(tags, tag)
				blob := bytes.Repeat([]byte{byte('a' + i)}, size)
				if err := putOne(client, tag, mle.Sealed{Blob: blob}, false); err != nil {
					t.Fatalf("Put %d: %v", i, err)
				}
			}
			// Cluster members dial lazily, which counts as a reconnect:
			// what must not move is the count across the Get.
			dialed := make([]int64, len(conns))
			for i, c := range conns {
				dialed[i] = c.Reconnects()
			}
			got, err := client.Get(wire.TraceContext{}, tags)
			if err != nil || len(got) != results {
				t.Fatalf("Get = (%d results, %v), want %d", len(got), err, results)
			}
			for i, r := range got {
				if !r.Found || len(r.Sealed.Blob) != size || r.Sealed.Blob[0] != byte('a'+i) || r.Sealed.Blob[size-1] != byte('a'+i) {
					t.Fatalf("Get[%d] = (found=%v, %d bytes), want result %d whole", i, r.Found, len(r.Sealed.Blob), i)
				}
			}
			// The store cuts each reply before the entry that does not
			// fit, without counting or touching it: nine results asked for
			// over several requests are nine hits.
			var hits int64
			for _, n := range d.nodes {
				hits += n.st.Stats().Hits
			}
			if hits != results {
				t.Errorf("stores counted %d hits for %d results fetched once each", hits, results)
			}
			// The same nine as one PUT: the client closes each window on
			// bytes, so no request outgrows a frame either. The windows are
			// cut by the member connection, so one deployment shows it.
			if len(conns) == 1 {
				items := make([]wire.PutItem, results)
				for i := range items {
					items[i] = wire.PutItem{Tag: tags[i], Sealed: got[i].Sealed, Replace: true}
				}
				put, err := client.Put(wire.TraceContext{}, items)
				if err != nil || len(put) != results {
					t.Fatalf("Put = (%d results, %v), want %d", len(put), err, results)
				}
				for i, r := range put {
					if !r.OK {
						t.Errorf("Put[%d] rejected: %s", i, r.Err)
					}
				}
			}
			for i, c := range conns {
				if c.Retries() != 0 || c.Reconnects() != dialed[i] {
					t.Errorf("connection %d: retries=%d, re-dialed %d times; want a healthy session throughout",
						i, c.Retries(), c.Reconnects()-dialed[i])
				}
			}
		})
	}
}
