package cluster

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// Config describes a static-membership ResultStore cluster.
type Config struct {
	// Nodes lists the member resultstore addresses (host:port). The
	// ring hashes addresses, not list positions, so reordering the list
	// does not move data. Required, at least one member.
	Nodes []string
	// Replicas is how many distinct members store each tag (the primary
	// plus R-1 ring successors). Zero selects min(2, len(Nodes));
	// values above len(Nodes) are clamped.
	Replicas int
	// App is the application enclave the per-node attested channels are
	// established from. Required.
	App *enclave.Enclave
	// StoreMeasurement is the store enclave measurement every member
	// must prove during its handshake — all members run the same store
	// code, so one pinned measurement covers the whole ring.
	StoreMeasurement enclave.Measurement
	// Remote configures each member's underlying RemoteClient
	// (deadlines, probe cadence, trust set), which is also the member's
	// failure detector. Lazy is forced on: the cluster client must
	// construct even while some members are down.
	Remote dedup.RemoteConfig
	// Telemetry, when non-nil, registers the per-node cluster series:
	// speed_cluster_node_up, speed_cluster_routed_total,
	// speed_cluster_failovers_total and speed_cluster_read_repairs_total.
	Telemetry *telemetry.Registry
	// Logf is the diagnostic logger; defaults to log.Printf.
	Logf func(format string, args ...any)
}

// errClientClosed is returned from requests after Close.
var errClientClosed = errors.New("cluster: client closed")

// node is one ring member. Its transport keeps the member's health,
// which the router reads through client.Healthy.
type node struct {
	addr   string
	client *dedup.RemoteClient

	// Nil-safe telemetry mirrors.
	routedGet  *telemetry.Counter
	routedPut  *telemetry.Counter
	failoversC *telemetry.Counter
}

// Client routes dedup.StoreClient traffic over the ring: every GET goes
// to the tag's primary (failing over along the replica set on transport
// errors, with read-repair back to the primary), every PUT is
// replicated to the tag's R owners, and batches are split by owner and
// run as parallel per-node round trips. It drops into
// dedup.Config.Client unchanged; it is healthy while any member is, so
// the Runtime degrades exactly when a single store's would.
type Client struct {
	cfg      Config
	ring     *ring
	nodes    []*node
	replicas int
	logf     func(format string, args ...any)

	closed atomic.Bool

	// repairWG tracks asynchronous read-repair uploads so Close never
	// leaks a goroutine mid-PUT. repairMu makes repairAsync's closed
	// check and its repairWG.Add one step against Close setting closed:
	// every Add happens before Close's Wait, or sees closed and never
	// happens.
	repairMu sync.Mutex
	repairWG sync.WaitGroup

	failovers   atomic.Int64
	readRepairs atomic.Int64

	// reg is the telemetry registry (nil when unconfigured), used to
	// record per-leg routing spans of sampled requests into the trace
	// ring.
	reg *telemetry.Registry
}

var _ dedup.StoreClient = (*Client)(nil)

// New builds the cluster client and dials its members lazily: a member
// that is down at construction is marked down by its first failed
// request, and its prober picks it up when it appears.
func New(cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: Config.Nodes is required")
	}
	if cfg.App == nil {
		return nil, errors.New("cluster: Config.App is required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Nodes) {
		cfg.Replicas = len(cfg.Nodes)
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	c := &Client{
		cfg:      cfg,
		ring:     newRing(cfg.Nodes),
		replicas: cfg.Replicas,
		logf:     cfg.Logf,
	}
	for _, addr := range cfg.Nodes {
		rcfg := cfg.Remote
		rcfg.Lazy = true
		nc, err := dedup.DialConfig(addr, cfg.App, cfg.StoreMeasurement, rcfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: member %s: %w", addr, err)
		}
		c.nodes = append(c.nodes, &node{addr: addr, client: nc})
	}
	c.registerTelemetry(cfg.Telemetry)
	return c, nil
}

func (c *Client) registerTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.reg = reg
	reg.NewCounterFunc("speed_cluster_read_repairs_total",
		"results copied back to their primary after a failover read", c.readRepairs.Load)
	for _, n := range c.nodes {
		n := n
		nodeLabel := telemetry.L("node", n.addr)
		reg.NewGaugeFunc("speed_cluster_node_up",
			"1 while the member's transport reports it healthy, 0 while down",
			func() float64 {
				if n.client.Healthy() {
					return 1
				}
				return 0
			}, nodeLabel)
		n.routedGet = reg.NewCounter("speed_cluster_routed_total",
			"requests routed to this member", nodeLabel, telemetry.L("op", "get"))
		n.routedPut = reg.NewCounter("speed_cluster_routed_total",
			"requests routed to this member", nodeLabel, telemetry.L("op", "put"))
		n.failoversC = reg.NewCounter("speed_cluster_failovers_total",
			"requests re-routed away from this member after a transport failure", nodeLabel)
	}
}

// Nodes reports the configured member addresses, in ring-member order.
func (c *Client) Nodes() []string { return append([]string(nil), c.cfg.Nodes...) }

// Replicas reports the effective replication factor.
func (c *Client) Replicas() int { return c.replicas }

// Failovers reports how many times a request was re-routed away from a
// failed member.
func (c *Client) Failovers() int64 { return c.failovers.Load() }

// ReadRepairs reports how many results were copied back to their
// primary after a failover read found them on a successor.
func (c *Client) ReadRepairs() int64 { return c.readRepairs.Load() }

// noteFailover counts requests re-routed away from the member after it
// failed them.
func (c *Client) noteFailover(n *node, requests int, err error) {
	c.failovers.Add(int64(requests))
	n.failoversC.Add(int64(requests))
	c.logf("cluster: member %s failed %d requests, failing over: %v", n.addr, requests, err)
}

// NodesUp reports how many members are currently routable.
func (c *Client) NodesUp() int {
	up := 0
	for _, n := range c.nodes {
		if n.client.Healthy() {
			up++
		}
	}
	return up
}

// NodeUp reports whether the member at the given index of Config.Nodes
// is currently routable.
func (c *Client) NodeUp(i int) bool { return c.nodes[i].client.Healthy() }

// Retries aggregates the members' request-resend counters, surfacing
// them through dedup.Stats.Retries exactly as a single RemoteClient
// would.
func (c *Client) Retries() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.client.Retries()
	}
	return total
}

// readOrder returns node indexes in the order a read for the tag should
// try them: live replica owners in ring order, then live non-owners
// (results land there when every owner was down at write time), then
// the down owners as a last resort.
func (c *Client) readOrder(tag mle.Tag) []int {
	all := c.ring.owners(tag, len(c.nodes))
	order := make([]int, 0, len(all))
	for _, ni := range all[:c.replicas] {
		if c.nodes[ni].client.Healthy() {
			order = append(order, ni)
		}
	}
	for _, ni := range all[c.replicas:] {
		if c.nodes[ni].client.Healthy() {
			order = append(order, ni)
		}
	}
	for _, ni := range all[:c.replicas] {
		if !c.nodes[ni].client.Healthy() {
			order = append(order, ni)
		}
	}
	return order
}

// writeTargets returns the members a PUT for the tag should be
// replicated to: the first Replicas live members in ring order (so a
// down owner's writes slide to the next successor instead of being
// lost), or the owner set itself when every member is down — they may
// be back by the time the request lands.
func (c *Client) writeTargets(tag mle.Tag) []int {
	all := c.ring.owners(tag, len(c.nodes))
	targets := make([]int, 0, c.replicas)
	for _, ni := range all {
		if len(targets) == c.replicas {
			break
		}
		if c.nodes[ni].client.Healthy() {
			targets = append(targets, ni)
		}
	}
	if len(targets) == 0 {
		targets = append(targets, all[:c.replicas]...)
	}
	return targets
}

// forwardLeg derives the context one routing leg forwards to a member:
// the same trace, with Parent re-pointed at a fresh leg span so the
// member's server-side span chains through this leg back to the
// runtime's root. Unsampled contexts pass through untouched.
func forwardLeg(tc wire.TraceContext) (wire.TraceContext, uint64) {
	if !tc.Valid() {
		return tc, 0
	}
	leg := wire.NewSpanID()
	fwd := tc
	fwd.Parent = leg
	return fwd, leg
}

// recordLeg records one routing leg of a sampled request as a child
// span in the trace ring: ParentID is the caller's span (the runtime's
// root), ID names the member the leg targeted, and the outcome
// distinguishes hits, misses, replica writes and failed legs (which
// the router then fails over from). No-op when unsampled or telemetry
// is off.
func (c *Client) recordLeg(tc wire.TraceContext, leg uint64, op, member string, start time.Time, outcome string, err error) {
	if c.reg == nil || !tc.Valid() {
		return
	}
	ev := telemetry.TraceEvent{
		Time:     time.Now(),
		Name:     op,
		ID:       member,
		TotalNS:  time.Since(start).Nanoseconds(),
		TraceID:  tc.TraceIDHex(),
		SpanID:   wire.SpanIDHex(leg),
		ParentID: wire.SpanIDHex(tc.Parent),
		Node:     c.reg.Node(),
	}
	if err != nil {
		ev.Err = err.Error()
	} else {
		ev.Outcome = outcome
	}
	c.reg.Trace().Add(ev)
}

// legClock stamps a start time only for sampled requests, so the
// unsampled path never reads the clock.
func legClock(tc wire.TraceContext) time.Time {
	if !tc.Valid() {
		return time.Time{}
	}
	return time.Now()
}

// Healthy implements dedup.StoreClient: the cluster is reachable while
// any member's transport reports its store healthy.
func (c *Client) Healthy() bool {
	if c.closed.Load() {
		return false
	}
	for _, n := range c.nodes {
		if n.client.Healthy() {
			return true
		}
	}
	return false
}

// Close implements dedup.StoreClient: it drains in-flight read repairs
// and closes every member channel, which stops the members' probers.
func (c *Client) Close() error {
	c.repairMu.Lock()
	wasClosed := c.closed.Swap(true)
	c.repairMu.Unlock()
	if wasClosed {
		return nil
	}
	c.repairWG.Wait()
	var firstErr error
	for _, n := range c.nodes {
		if err := n.client.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// repairAsync uploads items found on a replica back to their primary,
// best-effort and off the caller's path. Repairs only run while the
// primary's transport reports it healthy; a failed repair is dropped
// (the next failover read will try again). A sampled read's repair leg
// is recorded as a child span of the same trace, so the console shows
// the write-back a failover read triggered.
func (c *Client) repairAsync(primary int, tc wire.TraceContext, items []wire.PutItem) {
	n := c.nodes[primary]
	if !n.client.Healthy() {
		return
	}
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	if c.closed.Load() {
		return
	}
	c.repairWG.Add(1)
	go func() {
		defer c.repairWG.Done()
		start := legClock(tc)
		fwd, leg := forwardLeg(tc)
		_, err := n.client.Put(fwd, items)
		c.recordLeg(tc, leg, "read_repair", n.addr, start, "repaired", err)
		if err != nil {
			return
		}
		c.readRepairs.Add(int64(len(items)))
	}()
}
