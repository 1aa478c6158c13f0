package dedup

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// StoreClient is the runtime's view of the encrypted ResultStore: the
// paper's two requests, GET and PUT (Algorithms 1-2). Every request
// is a batch — a single call is a batch of one — and carries a trace
// context, whose zero value means "unsampled". Every deployment
// implements it: the two of Section IV-B — a store on the same machine
// (LocalClient) and a store on a dedicated server reached over the
// attested secure channel (RemoteClient) — and a ring of such servers
// (cluster.Client).
type StoreClient interface {
	// Get performs a GET_REQUEST per tag, answering positionally: a nil
	// error guarantees len(results) == len(tags).
	Get(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error)
	// Put performs a PUT_REQUEST per item, answering positionally. An
	// item with Replace set overwrites any existing entry (used after
	// the stored entry failed verification at this application).
	// Per-item rejections (quota, authorization) land in the results,
	// not the error.
	Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error)
	// Healthy reports whether the store is believed reachable. It is
	// one cheap read of the client's health state, which the client
	// keeps itself: a transport failure marks it down, any success
	// marks it up again. While it reports false the runtime serves
	// every call compute-only without consulting the store.
	Healthy() bool
	// Close releases the client's resources; every later request
	// errors.
	Close() error
}

// ErrPutRejected wraps the reason a store refused a PUT, e.g. due to
// the quota mechanism.
var ErrPutRejected = errors.New("dedup: store rejected put")

// errClientClosed is returned from requests after Close.
var errClientClosed = errors.New("dedup: store client closed")

// LocalClient talks to a Store in the same process, modelling the
// paper's default deployment of the ResultStore "at the same machine of
// the outsourced applications". Requests still pass through the store
// enclave's ECALLs — one entry per request, whatever its item count,
// through the same per-message Store calls the server dispatches to —
// so transition costs are accounted identically to the networked path
// minus the socket.
type LocalClient struct {
	store  *store.Store
	owner  enclave.Measurement
	closed atomic.Bool
}

var _ StoreClient = (*LocalClient)(nil)

// NewLocalClient creates a client operating on behalf of the
// application with the given measurement.
func NewLocalClient(st *store.Store, owner enclave.Measurement) *LocalClient {
	return &LocalClient{store: st, owner: owner}
}

// Get implements StoreClient with the server's own mapping, so
// authorization denials present as misses exactly as over the wire;
// with no reply frame to overflow, no budget cuts the answer short.
// Each hit is copied out of the store's record view, as a remote hit
// arrives in a frame of its own.
func (c *LocalClient) Get(_ wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	if c.closed.Load() {
		return nil, errClientClosed
	}
	results, err := c.store.WireGet(c.owner, tags, math.MaxInt)
	for i := range results {
		results[i].Sealed = results[i].Sealed.Clone()
	}
	return results, err
}

// Put implements StoreClient with the server's own mapping.
func (c *LocalClient) Put(_ wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	if c.closed.Load() {
		return nil, errClientClosed
	}
	return c.store.WirePut(c.owner, items)
}

// Healthy implements StoreClient: the in-process store is reachable
// exactly while both it and the client are open.
func (c *LocalClient) Healthy() bool {
	return !c.closed.Load() && !c.store.Closed()
}

// Close implements StoreClient. The local client does not own the
// store, which stays open.
func (c *LocalClient) Close() error {
	c.closed.Store(true)
	return nil
}

// RemoteConfig tunes the failure handling of a RemoteClient. The zero
// value selects the defaults noted on each field. DESIGN.md "Store
// failure handling" derives the worst-case times to degrade and to
// recover from DialTimeout, RequestTimeout and ProbeInterval.
type RemoteConfig struct {
	// DialTimeout bounds the TCP connect plus the attested handshake of
	// each (re)connection attempt. Defaults to 5s; negative disables.
	DialTimeout time.Duration
	// RequestTimeout bounds one GET/PUT round trip on the channel, so a
	// stalled store can never wedge a caller. Defaults to 5s; negative
	// disables.
	RequestTimeout time.Duration
	// ProbeInterval is the cadence of the one prober that runs while
	// the client is down: it pings the store every ProbeInterval and
	// stops at the first success, which marks the client up again.
	// Defaults to 500ms.
	ProbeInterval time.Duration
	// Trust optionally accepts a store on a remote machine whose
	// platform attestation key is listed (remote attestation).
	Trust *wire.Trust
	// Lazy defers the first connection to the first request, so a
	// client can be created while the store is still down. Combined
	// with the runtime's degradation mode the application starts
	// compute-only and picks up deduplication when the store appears.
	Lazy bool
	// Telemetry, when non-nil, registers the client's resend and
	// reconnect counters and its in-flight-request gauge so the
	// registry sees them directly rather than through the runtime's
	// Stats probe.
	Telemetry *telemetry.Registry
}

func (cfg *RemoteConfig) fillDefaults() {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
}

// RemoteClient talks to a store server over an attested secure channel.
// The channel is a mux: any number of goroutines may issue requests
// concurrently and their round trips overlap on the single connection,
// with responses correlated by request ID. A peer speaking any protocol
// version but wire.ProtocolVersion is refused in the handshake
// (wire.ErrPeerRejected).
//
// The client is also the deployment's one failure detector. Every
// request makes one attempt; when it fails on a connection set up before
// the request, the client re-dials once and resends it. A transport
// failure that the re-dial does not cure marks the client down, and any
// later success marks it up. While down, one prober goroutine pings the
// store every ProbeInterval until a ping succeeds.
type RemoteClient struct {
	cfg RemoteConfig

	// Redial parameters.
	addr      string
	app       *enclave.Enclave
	storeMeas enclave.Measurement

	retries    atomic.Int64
	reconnects atomic.Int64
	inflight   atomic.Int64

	// Telemetry mirrors; nil-safe no-ops when RemoteConfig.Telemetry
	// was nil.
	retriesC    *telemetry.Counter
	reconnectsC *telemetry.Counter
	inflightG   *telemetry.Gauge

	// down is the health state Healthy reads. It is set under mu, so
	// it can never be cleared after Close; the fast path of marking up
	// is one load of it.
	down atomic.Bool

	// mu guards the connection and the prober below. It is held only to
	// install, read or tear down the connection — never across a round
	// trip — so concurrent callers on the mux proceed in parallel. The
	// prober starts under mu only while the client is open, and Close
	// sets closed under mu before it waits, so every probeWG.Add happens
	// before Close's Wait or never.
	mu      sync.Mutex
	mux     *chanMux // the connection; nil while disconnected
	closed  bool
	probing bool          // the prober is running
	stop    chan struct{} // closed by Close
	probeWG sync.WaitGroup
}

var _ StoreClient = (*RemoteClient)(nil)

// Dial connects to a store server at addr on the same platform,
// performing the attested handshake from the application enclave app
// and requiring the server to prove the expected store measurement.
func Dial(addr string, app *enclave.Enclave, storeMeasurement enclave.Measurement) (*RemoteClient, error) {
	return DialConfig(addr, app, storeMeasurement, RemoteConfig{})
}

// DialConfig is Dial with explicit failure-handling configuration.
func DialConfig(addr string, app *enclave.Enclave, storeMeasurement enclave.Measurement, cfg RemoteConfig) (*RemoteClient, error) {
	cfg.fillDefaults()
	c := &RemoteClient{
		cfg:       cfg,
		addr:      addr,
		app:       app,
		storeMeas: storeMeasurement,
		stop:      make(chan struct{}),
	}
	if cfg.Telemetry != nil {
		appLabel := telemetry.L("app", app.Name())
		c.retriesC = cfg.Telemetry.NewCounter("speed_client_retries_total",
			"store requests resent once on a fresh connection after the old one failed", appLabel)
		c.reconnectsC = cfg.Telemetry.NewCounter("speed_client_reconnects_total",
			"successful re-dials of the attested store channel", appLabel)
		c.inflightG = cfg.Telemetry.NewGauge("speed_client_inflight_requests",
			"store requests currently awaiting a reply", appLabel)
	}
	if !cfg.Lazy {
		mux, err := c.dial()
		if err != nil {
			return nil, err
		}
		c.mux = mux
	}
	return c, nil
}

// Retries reports the number of requests resent after a re-dial.
func (c *RemoteClient) Retries() int64 { return c.retries.Load() }

// Reconnects reports the number of successful re-dials (not counting
// the initial connection).
func (c *RemoteClient) Reconnects() int64 { return c.reconnects.Load() }

// Healthy implements StoreClient: false from the first transport
// failure the re-dial did not cure until the next success, and for
// good after Close.
func (c *RemoteClient) Healthy() bool { return !c.down.Load() }

// dial establishes one attested channel, bounding connect plus
// handshake with DialTimeout, and wraps it in a mux.
func (c *RemoteClient) dial() (*chanMux, error) {
	timeout := c.cfg.DialTimeout
	if timeout < 0 {
		timeout = 0
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dedup: dial store: %w", err)
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	ch, err := wire.ClientHandshakeTrust(conn, c.app, c.storeMeas, c.cfg.Trust)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dedup: handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	return newChanMux(ch, max(c.cfg.RequestTimeout, 0)), nil
}

// connect returns the current connection, dialing one first when
// disconnected; fresh reports that this call dialed it. Concurrent
// callers racing to reconnect serialise here and share the single
// fresh channel.
func (c *RemoteClient) connect() (mux *chanMux, fresh bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, false, errClientClosed
	}
	if c.mux == nil {
		mux, err := c.dial()
		if err != nil {
			return nil, true, err
		}
		c.mux = mux
		c.reconnects.Add(1)
		c.reconnectsC.Inc()
		return mux, true, nil
	}
	return c.mux, false, nil
}

// dropConn tears down the given connection if it is still the current
// one, so the next attempt re-dials. A connection replaced by a
// concurrent reconnect is left alone.
func (c *RemoteClient) dropConn(mux *chanMux) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mux != mux {
		return
	}
	mux.fail(errors.New("dedup: store channel poisoned"))
	c.mux = nil
}

// roundTrip sends one request and waits for its reply, and is where the
// client's health changes. An attempt that broke a connection set up
// before the request is resent once on a fresh one: the store may have
// restarted since, and GET and PUT are both safe to resend (the
// first version of an entry wins). A transport failure left after that
// marks the client down; any reply marks it up. A sampled tc rides in
// the envelope.
func (c *RemoteClient) roundTrip(req wire.Message, tc wire.TraceContext) (wire.Message, error) {
	msg, fresh, broken, err := c.attempt(req, tc)
	if broken && !fresh {
		c.retries.Add(1)
		c.retriesC.Inc()
		msg, _, broken, err = c.attempt(req, tc)
	}
	switch {
	case broken:
		c.markDown()
	case err == nil:
		c.markUp()
	}
	return msg, err
}

// attempt performs one request attempt on the current connection,
// (re)connecting first if necessary; fresh reports that it dialed. The
// request travels through the mux and overlaps with other callers'.
// broken reports a transport failure: no connection could be set up, or
// the one used died — any transport error poisons the channel (its
// cipher counters can no longer match the peer's), so it is dropped and
// the next attempt re-handshakes. A request that was refused before a
// byte of it was written (too large for a frame) fails alone, on a
// connection that stays up.
func (c *RemoteClient) attempt(req wire.Message, tc wire.TraceContext) (msg wire.Message, fresh, broken bool, err error) {
	mux, fresh, err := c.connect()
	if err != nil {
		// A failed dial is a transport failure; a closed client is not.
		return nil, fresh, fresh, err
	}
	c.inflight.Add(1)
	c.inflightG.Add(1)
	defer func() {
		c.inflight.Add(-1)
		c.inflightG.Add(-1)
	}()

	msg, err = mux.roundTrip(req, tc)
	if err != nil {
		if c.isClosed() {
			// Close raced with the request; surface the deterministic
			// terminal error rather than whatever the dying transport
			// produced.
			return nil, fresh, false, errClientClosed
		}
		if mux.dead() {
			c.dropConn(mux)
			broken = true
		}
		return nil, fresh, broken, err
	}
	return msg, fresh, false, nil
}

func (c *RemoteClient) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// markUp records a successful exchange. While the client is up it is
// one atomic load.
func (c *RemoteClient) markUp() {
	if !c.down.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.down.Store(false)
	}
}

// markDown records a transport failure and starts the prober unless it
// is already running or the client is closed.
func (c *RemoteClient) markDown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.down.Store(true)
	if !c.probing {
		c.probing = true
		c.probeWG.Add(1)
		go c.probe()
	}
}

// probe pings the store every ProbeInterval until the client is up
// again, whether its own ping or a request brought it up, or until
// Close. It re-checks the state under mu, so a failure recorded after
// its successful ping keeps it running rather than leaving the client
// down with no prober.
func (c *RemoteClient) probe() {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		_ = c.Ping()
		c.mu.Lock()
		done := c.closed || !c.down.Load()
		if done {
			c.probing = false
		}
		c.mu.Unlock()
		if done {
			return
		}
	}
}

// windowBytes closes a PUT window: the items of one request carry at
// most this much sealed payload (a single larger item still travels
// alone), half a frame so per-item framing can never tip it over
// wire.MaxFrameSize.
const windowBytes = wire.MaxFrameSize / 2

// windowed is the one slicing loop: it issues round trips until all n
// items are answered. A window holds at most wire.MaxBatchItems items
// and, when size is non-nil, at most windowBytes of them (always at
// least one). request builds the message for items [lo, hi); absorb
// consumes the reply and reports how many items it answered, or false
// for a reply of the wrong kind. A store answers only a prefix of a
// request whose full reply would overflow a frame, so the loop advances
// by what was answered; an answer of nothing would never advance and is
// an error. An empty batch makes no round trip to notice a closed
// client, so it checks here.
func (c *RemoteClient) windowed(op string, tc wire.TraceContext, n int, size func(i int) int, request func(lo, hi int) wire.Message, absorb func(wire.Message) (int, bool)) error {
	if n == 0 && c.isClosed() {
		return fmt.Errorf("dedup: %s: %w", op, errClientClosed)
	}
	for lo := 0; lo < n; {
		hi := min(lo+wire.MaxBatchItems, n)
		if size != nil {
			bytes := 0
			for i := lo; i < hi; i++ {
				if bytes += size(i); bytes > windowBytes && i > lo {
					hi = i
					break
				}
			}
		}
		msg, err := c.roundTrip(request(lo, hi), tc)
		if err != nil {
			return fmt.Errorf("dedup: %s: %w", op, err)
		}
		got, ok := absorb(msg)
		if !ok {
			return fmt.Errorf("dedup: %s: unexpected reply %v", op, msg.Kind())
		}
		if got == 0 || got > hi-lo {
			return fmt.Errorf("dedup: %s: %d results for %d items", op, got, hi-lo)
		}
		lo += got
	}
	return nil
}

// join appends one window's answers to the batch's; the first window's
// slice — the whole answer of most calls — is adopted, not copied.
func join[T any](all, part []T) []T {
	if all == nil {
		return part
	}
	return append(all, part...)
}

// Get implements StoreClient.
func (c *RemoteClient) Get(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	var results []wire.GetResult
	err := c.windowed("get", tc, len(tags), nil, func(lo, hi int) wire.Message {
		return wire.GetRequest{Tags: tags[lo:hi]}
	}, func(msg wire.Message) (int, bool) {
		r, ok := msg.(wire.GetResponse)
		results = join(results, r.Results)
		return len(r.Results), ok
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Put implements StoreClient. An item the store refused — over quota,
// rate-limited, unauthorized — is reported in its PutResult and never
// retried: the runtime treats rejected puts as advisory, and sleeping
// on one would stall the caller's PUT OCALL only to learn again what
// the store already said.
func (c *RemoteClient) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	var results []wire.PutResult
	err := c.windowed("put", tc, len(items), func(i int) int {
		return items[i].Sealed.Size()
	}, func(lo, hi int) wire.Message {
		return wire.PutRequest{Items: items[lo:hi]}
	}, func(msg wire.Message) (int, bool) {
		r, ok := msg.(wire.PutResponse)
		results = join(results, r.Results)
		return len(r.Results), ok
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Ping is the prober's probe: one liveness round trip — a GET of no
// tags through the mux — that performs no dictionary operation. The
// full path — (re)dial, attested handshake, framing, store dispatch —
// is exercised, but the store executes zero GETs, so health probes
// never fabricate traffic or skew hit-rate statistics. Like any request
// it moves the client's health.
func (c *RemoteClient) Ping() error {
	msg, err := c.roundTrip(wire.GetRequest{}, wire.TraceContext{})
	if err != nil {
		return fmt.Errorf("dedup: ping: %w", err)
	}
	resp, ok := msg.(wire.GetResponse)
	if !ok {
		return fmt.Errorf("dedup: ping: unexpected reply %v", msg.Kind())
	}
	if len(resp.Results) != 0 {
		return fmt.Errorf("dedup: ping: %d results for an empty probe", len(resp.Results))
	}
	return nil
}

// Close implements StoreClient. It is idempotent and safe to call
// concurrently with in-flight requests: waiters on the mux are
// unblocked with errClientClosed, and any request racing the teardown
// surfaces errClientClosed rather than a transport error. It returns
// once the prober, if one ran, has exited; no probe is sent after.
func (c *RemoteClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.down.Store(true)
	close(c.stop)
	mux := c.mux
	c.mux = nil
	c.mu.Unlock()
	if mux != nil {
		// Fails every in-flight waiter with the deterministic terminal
		// error (and closes the underlying channel).
		mux.fail(errClientClosed)
	}
	c.probeWG.Wait()
	return nil
}
