package dedup

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// StoreClient is the runtime's view of the encrypted ResultStore: the
// paper's two requests, GET and PUT (Algorithms 1-2), plus the
// existence probe chunked dedup asks before transferring chunks. Every
// request is a batch — a single call is a batch of one — and carries a
// trace context, whose zero value means "unsampled". Every deployment
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
	// Has reports, positionally, which tags are present, without
	// fetching payloads, counting hits or refreshing recency. Answers
	// are hints: a probed-present entry can be evicted before a later GET,
	// which surfaces as a loud reassembly failure and a recompute,
	// never a wrong result.
	Has(tc wire.TraceContext, tags []mle.Tag) ([]bool, error)
	// Ping checks that the store is reachable and serving, without
	// performing (or fabricating) any dictionary operation: health
	// probes must not pollute the store's GET/hit statistics. A nil
	// return means a full request round trip succeeded.
	Ping() error
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
func (c *LocalClient) Get(_ wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	if c.closed.Load() {
		return nil, errClientClosed
	}
	return c.store.WireGet(c.owner, tags, math.MaxInt)
}

// Put implements StoreClient with the server's own mapping.
func (c *LocalClient) Put(_ wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	if c.closed.Load() {
		return nil, errClientClosed
	}
	return c.store.WirePut(c.owner, items)
}

// Has implements StoreClient. The store maps authorization denials to
// absent itself (deny without information).
func (c *LocalClient) Has(_ wire.TraceContext, tags []mle.Tag) ([]bool, error) {
	if c.closed.Load() {
		return nil, errClientClosed
	}
	return c.store.WireHas(c.owner, tags)
}

// Ping implements StoreClient: the in-process store is "reachable"
// exactly while it is open. No dictionary operation is performed.
func (c *LocalClient) Ping() error {
	if c.closed.Load() {
		return errClientClosed
	}
	if c.store.Closed() {
		return store.ErrClosed
	}
	return nil
}

// Close implements StoreClient. The local client does not own the
// store, which stays open.
func (c *LocalClient) Close() error {
	c.closed.Store(true)
	return nil
}

// RemoteConfig tunes the robustness behaviour of a RemoteClient. The
// zero value selects the defaults noted on each field.
type RemoteConfig struct {
	// DialTimeout bounds the TCP connect plus the attested handshake of
	// each (re)connection attempt. Defaults to 5s; negative disables.
	DialTimeout time.Duration
	// RequestTimeout bounds one GET/PUT round trip on the channel, so a
	// stalled store can never wedge a caller. Defaults to 5s; negative
	// disables.
	RequestTimeout time.Duration
	// MaxRetries is the number of additional attempts after a transient
	// failure (connection reset, timeout, rate-limit rejection) before
	// the error is surfaced. Defaults to 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry delay; each further retry doubles
	// it, with ±50% jitter, up to RetryMaxBackoff. Defaults to
	// 50ms / 2s.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration
	// Trust optionally accepts a store on a remote machine whose
	// platform attestation key is listed (remote attestation).
	Trust *wire.Trust
	// Lazy defers the first connection to the first request, so a
	// client can be created while the store is still down. Combined
	// with the runtime's degradation mode the application starts
	// compute-only and picks up deduplication when the store appears.
	Lazy bool
	// Telemetry, when non-nil, registers the client's retry and
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
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.RetryMaxBackoff <= 0 {
		cfg.RetryMaxBackoff = 2 * time.Second
	}
}

// RemoteClient talks to a store server over an attested secure channel.
// The channel is a mux: any number of goroutines may issue requests
// concurrently and their round trips overlap on the single connection,
// with responses correlated by request ID. A peer speaking any protocol
// version but wire.ProtocolVersion is refused in the handshake
// (wire.ErrPeerRejected, never retried). Requests carry per-request
// deadlines and transient failures are retried with jittered
// exponential backoff, transparently re-dialing and re-handshaking the
// attested channel when the previous one broke.
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

	// mu guards the connection state below. It is held only to
	// install, read or tear down the connection — never across a round
	// trip — so concurrent callers on the mux proceed in parallel.
	mu     sync.Mutex
	mux    *chanMux // the connection; nil while disconnected
	closed bool
}

var _ StoreClient = (*RemoteClient)(nil)

// Dial connects to a store server at addr on the same platform,
// performing the attested handshake from the application enclave app
// and requiring the server to prove the expected store measurement.
func Dial(addr string, app *enclave.Enclave, storeMeasurement enclave.Measurement) (*RemoteClient, error) {
	return DialConfig(addr, app, storeMeasurement, RemoteConfig{})
}

// DialTrust is Dial that additionally accepts a store on a remote
// machine whose platform attestation key is in trust (remote
// attestation) — the cross-machine "master ResultStore" deployment of
// Section IV-B.
func DialTrust(addr string, app *enclave.Enclave, storeMeasurement enclave.Measurement, trust *wire.Trust) (*RemoteClient, error) {
	return DialConfig(addr, app, storeMeasurement, RemoteConfig{Trust: trust})
}

// DialConfig is Dial with explicit robustness configuration.
func DialConfig(addr string, app *enclave.Enclave, storeMeasurement enclave.Measurement, cfg RemoteConfig) (*RemoteClient, error) {
	cfg.fillDefaults()
	c := &RemoteClient{
		cfg:       cfg,
		addr:      addr,
		app:       app,
		storeMeas: storeMeasurement,
	}
	if cfg.Telemetry != nil {
		appLabel := telemetry.L("app", app.Name())
		c.retriesC = cfg.Telemetry.NewCounter("speed_client_retries_total",
			"store request retries after transient failures", appLabel)
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

// Retries reports the number of request retries performed.
func (c *RemoteClient) Retries() int64 { return c.retries.Load() }

// Reconnects reports the number of successful re-dials (not counting
// the initial connection).
func (c *RemoteClient) Reconnects() int64 { return c.reconnects.Load() }

// Inflight reports the number of requests currently awaiting a reply.
func (c *RemoteClient) Inflight() int64 { return c.inflight.Load() }

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
	return newChanMux(ch), nil
}

// connect returns the current connection, dialing one first when
// disconnected. Concurrent callers racing to reconnect serialise here
// and share the single fresh channel.
func (c *RemoteClient) connect() (*chanMux, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.mux == nil {
		mux, err := c.dial()
		if err != nil {
			return nil, err
		}
		c.mux = mux
		c.reconnects.Add(1)
		c.reconnectsC.Inc()
	}
	return c.mux, nil
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

// roundTrip sends one request and waits for its reply, applying the
// per-request deadline, retry policy and transparent reconnect. A
// sampled tc rides in the envelope.
func (c *RemoteClient) roundTrip(req wire.Message, tc wire.TraceContext) (wire.Message, error) {
	attempts := 1 + c.cfg.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			c.retriesC.Inc()
			sleepJittered(backoff)
			backoff *= 2
			if backoff > c.cfg.RetryMaxBackoff {
				backoff = c.cfg.RetryMaxBackoff
			}
		}
		msg, err := c.tryOnce(req, tc)
		if err != nil {
			lastErr = err
			if !isTransient(err) {
				return nil, err
			}
			continue
		}
		// A rate-limited PUT is the store asking us to slow down
		// (Section III-D quota); honour it by backing off and retrying
		// unless this was the final attempt.
		if pr, ok := msg.(wire.PutResponse); ok && len(pr.Results) == 1 && !pr.Results[0].OK && isRateLimited(pr.Results[0].Err) && attempt < attempts-1 {
			lastErr = fmt.Errorf("%w: %s", ErrPutRejected, pr.Results[0].Err)
			continue
		}
		return msg, nil
	}
	return nil, lastErr
}

// tryOnce performs a single request attempt on the current connection,
// (re)connecting first if necessary. The request travels through the
// mux and overlaps with other callers'. Any transport error poisons the
// channel (its cipher counters can no longer match the peer's), so the
// connection is dropped and the next attempt re-handshakes. A request
// that was refused before a byte of it was written (too large for a
// frame) fails alone, on a connection that stays up.
func (c *RemoteClient) tryOnce(req wire.Message, tc wire.TraceContext) (wire.Message, error) {
	mux, err := c.connect()
	if err != nil {
		return nil, err
	}
	c.inflight.Add(1)
	c.inflightG.Add(1)
	defer func() {
		c.inflight.Add(-1)
		c.inflightG.Add(-1)
	}()

	msg, err := mux.roundTrip(req, tc, c.cfg.RequestTimeout)
	if err != nil {
		if mux.dead() {
			c.dropConn(mux)
		}
		if c.isClosed() {
			// Close raced with the request; surface the deterministic
			// terminal error rather than whatever the dying transport
			// produced.
			return nil, errClientClosed
		}
		return nil, err
	}
	return msg, nil
}

func (c *RemoteClient) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// isTransient reports whether a request error is worth retrying on a
// fresh connection: timeouts, connection resets/refusals and peer
// closes. Attestation failures and protocol violations are not.
func isTransient(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	return false
}

// isRateLimited recognises the store's rate-limit rejection reason in a
// PutResponse (the byte-space quota, by contrast, is not transient).
func isRateLimited(reason string) bool {
	return strings.Contains(reason, "rate limit")
}

// sleepJittered sleeps for d ±50%, decorrelating the retry schedules
// of concurrent clients hammering a recovering store.
func sleepJittered(d time.Duration) {
	if d <= 0 {
		return
	}
	half := int64(d / 2)
	time.Sleep(time.Duration(half + rand.Int63n(half+1)))
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

// Put implements StoreClient. A rate-limited PUT of one item is retried
// by roundTrip; rate-limited items of a larger window are reported in
// their PutResult instead — retrying a subset of a batch would reorder
// it against concurrent batches for no benefit, and the runtime already
// treats rejected puts as advisory.
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

// Has implements StoreClient.
func (c *RemoteClient) Has(tc wire.TraceContext, tags []mle.Tag) ([]bool, error) {
	var present []bool
	err := c.windowed("has", tc, len(tags), nil, func(lo, hi int) wire.Message {
		return wire.HasRequest{Tags: tags[lo:hi]}
	}, func(msg wire.Message) (int, bool) {
		r, ok := msg.(wire.HasResponse)
		present = join(present, r.Present)
		return len(r.Present), ok
	})
	if err != nil {
		return nil, err
	}
	return present, nil
}

// Ping implements StoreClient: one liveness round trip — a GET of no
// tags through the mux — that performs no dictionary operation. The
// full path — (re)dial, attested handshake, framing, store dispatch —
// is exercised, but the store executes zero GETs, so health probes
// never fabricate traffic or skew hit-rate statistics. Ping is a single
// attempt without the retry schedule: a probe should report the store's
// state now, and probers repeat on their own cadence.
func (c *RemoteClient) Ping() error {
	msg, err := c.tryOnce(wire.GetRequest{}, wire.TraceContext{})
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
// surfaces errClientClosed rather than a transport error.
func (c *RemoteClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	mux := c.mux
	c.mux = nil
	c.mu.Unlock()
	if mux != nil {
		// Fails every in-flight waiter with the deterministic terminal
		// error (and closes the underlying channel).
		mux.fail(errClientClosed)
	}
	return nil
}
