package store

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/enclave"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// Server exposes a Store over the wire protocol. The main body of the
// server runs outside the enclave (Section IV-B: "the main body of
// encrypted ResultStore runs outside the enclave"); each request is
// parsed outside and delegated into the store enclave via an ECALL.
// Each session is one goroutine, which reads, serves and answers its
// requests in turn (handleMux); sessions run concurrently.
type Server struct {
	store  *Store
	ln     net.Listener
	accept func(enclave.Measurement) bool
	trust  *wire.Trust
	logf   func(format string, args ...any)

	// Connection timeouts, so a stalled or half-open peer can never
	// wedge a session goroutine; set from the constants below (fields
	// only so a test can shorten them).
	handshakeTimeout time.Duration
	idleTimeout      time.Duration
	writeTimeout     time.Duration

	// slowThreshold, when positive, logs one structured line for any
	// request whose dispatch exceeds it (see WithSlowRequestLog);
	// slowLast is the rate limiter.
	slowThreshold time.Duration
	slowLast      atomic.Int64

	// Auth-failure totals folded from every session's channel counters
	// (deltas, like the wire-byte accounting), exported through the
	// AuthFailures/AuthFailBytes accessors and, with telemetry, the
	// speed_wire_auth_* counters.
	authFails     atomic.Int64
	authFailBytes atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	tel *serverMetrics
}

// serverMetrics is the server's pre-registered metric set (see
// WithTelemetry).
type serverMetrics struct {
	reg           *telemetry.Registry
	connections   *telemetry.Counter
	active        *telemetry.Gauge
	inflight      *telemetry.Gauge
	bytesIn       *telemetry.Counter
	bytesOut      *telemetry.Counter
	authFails     *telemetry.Counter
	authFailBytes *telemetry.Counter
	reqSeconds    map[wire.Kind]*telemetry.Histogram
	batchSize     *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	reqSeconds := make(map[wire.Kind]*telemetry.Histogram)
	for kind, op := range requestOps {
		reqSeconds[kind] = reg.NewHistogram("speed_server_request_seconds",
			"request service latency from dispatch to reply written",
			telemetry.L("op", op.label))
	}
	return &serverMetrics{
		reg: reg,
		connections: reg.NewCounter("speed_server_connections_total",
			"accepted client connections that completed the handshake"),
		active: reg.NewGauge("speed_server_active_connections",
			"currently attached client connections"),
		inflight: reg.NewGauge("speed_server_inflight_requests",
			"requests currently being parsed, executed or written across all sessions"),
		bytesIn: reg.NewCounter("speed_server_wire_bytes_in_total",
			"wire bytes received from clients, including framing"),
		bytesOut: reg.NewCounter("speed_server_wire_bytes_out_total",
			"wire bytes sent to clients, including framing"),
		authFails: reg.NewCounter("speed_wire_auth_failures_total",
			"received frames that failed AEAD authentication"),
		authFailBytes: reg.NewCounter("speed_wire_auth_fail_bytes_total",
			"bytes (payload plus framing) of frames that failed AEAD authentication"),
		reqSeconds: reqSeconds,
		batchSize: reg.NewHistogram("speed_store_batch_size",
			"items per GET/PUT request (bucket values are item counts, not seconds)"),
	}
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithAcceptFunc restricts which attested client measurements are
// admitted. The default accepts any client that passes attestation.
func WithAcceptFunc(accept func(enclave.Measurement) bool) ServerOption {
	return func(s *Server) { s.accept = accept }
}

// WithLogf sets the diagnostic logger. The default logs via the
// standard logger; pass a no-op to silence.
func WithLogf(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithTrust accepts clients from remote machines whose platform
// attestation keys are in the trust set (remote attestation). Without
// it only same-platform clients can connect.
func WithTrust(trust *wire.Trust) ServerOption {
	return func(s *Server) { s.trust = trust }
}

// WithTelemetry registers the server's connection, wire-byte,
// auth-failure and request-latency metrics with reg, and records
// server-side spans of sampled requests (queue wait plus handler
// execution) into reg's trace ring. A nil registry leaves the server
// uninstrumented.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server) { s.tel = newServerMetrics(reg) }
}

// WithSlowRequestLog logs one structured line via the server's logger
// for any request whose dispatch exceeds threshold, rate-limited to
// one line per second so a latency storm cannot flood the log. The
// line carries the request's trace ID when it was sampled. Zero or
// negative disables (the default).
func WithSlowRequestLog(threshold time.Duration) ServerOption {
	return func(s *Server) { s.slowThreshold = threshold }
}

const (
	// handshakeTimeout bounds the attested handshake of a new
	// connection, shedding half-open peers.
	handshakeTimeout = 10 * time.Second
	// idleTimeout closes a connection when no request arrives within it.
	// Clients reconnect transparently (RemoteClient re-dials), so this
	// only sheds abandoned sessions.
	idleTimeout = 5 * time.Minute
	// writeTimeout bounds each response write, so a peer that stops
	// reading cannot wedge its session.
	writeTimeout = 30 * time.Second
)

// Session phases, stamped for the session's watchdog in the low two
// bits of its state, under the watchdog tick of the stamp.
const (
	phaseRead  = iota // waiting for a request: idleTimeout runs
	phaseServe        // serving a request that arrived: no timeout runs
	phaseWrite        // writing the reply: writeTimeout runs
	phaseDone         // the session ended: the watchdog stops
)

// NewServer wraps store with a protocol server listening on ln.
// Call Serve to start accepting and Close to shut down.
func NewServer(st *Store, ln net.Listener, opts ...ServerOption) *Server {
	s := &Server{
		store:            st,
		ln:               ln,
		logf:             log.Printf,
		conns:            make(map[net.Conn]struct{}),
		handshakeTimeout: handshakeTimeout,
		idleTimeout:      idleTimeout,
		writeTimeout:     writeTimeout,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// AuthFailures reports the total received frames across all sessions
// that failed AEAD authentication.
func (s *Server) AuthFailures() int64 { return s.authFails.Load() }

// AuthFailBytes reports the total bytes (payload plus framing) of
// frames that failed AEAD authentication across all sessions.
func (s *Server) AuthFailBytes() int64 { return s.authFailBytes.Load() }

// Serve accepts connections until Close is called. Temporary accept
// failures (e.g. EMFILE under file-descriptor pressure) are retried
// with capped exponential backoff rather than killing the server. It
// always returns a non-nil error; after Close the error is
// net.ErrClosed.
func (s *Server) Serve() error {
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return net.ErrClosed
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.logf("store: accept: %v; retrying in %v", err, backoff)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener, closes active connections, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(s.handshakeTimeout))
	ch, err := wire.ServerHandshakeTrust(conn, s.store.Enclave(), s.accept, s.trust)
	if err != nil {
		s.logf("store: handshake from %v: %v", conn.RemoteAddr(), err)
		return
	}
	_ = conn.SetDeadline(time.Time{})
	owner := ch.Peer()

	// Wire-byte and auth-failure accounting: fold the channel's running
	// totals into the registry counters as deltas, so /metrics tracks
	// live traffic rather than jumping when a connection closes.
	var lastIn, lastOut, lastAF, lastAFB int64
	flushBytes := func() {
		in, out := ch.BytesReceived(), ch.BytesSent()
		af, afb := ch.AuthFailures(), ch.AuthFailBytes()
		s.authFails.Add(af - lastAF)
		s.authFailBytes.Add(afb - lastAFB)
		if s.tel != nil {
			s.tel.bytesIn.Add(in - lastIn)
			s.tel.bytesOut.Add(out - lastOut)
			s.tel.authFails.Add(af - lastAF)
			s.tel.authFailBytes.Add(afb - lastAFB)
		}
		lastIn, lastOut, lastAF, lastAFB = in, out, af, afb
	}
	defer flushBytes()
	if s.tel != nil {
		s.tel.connections.Inc()
		s.tel.active.Add(1)
		defer s.tel.active.Add(-1)
	}
	s.handleMux(conn, ch, owner, flushBytes)
}

// request is one decoded envelope on its way through the session.
type request struct {
	id  uint64
	msg wire.Message
	// tc is the caller's trace context (zero when unsampled); readAt is
	// when the envelope was decoded, stamped only for sampled requests so
	// the hot path skips the clock read.
	tc     wire.TraceContext
	readAt time.Time
}

// handleMux services a session on this one goroutine: it reads and
// decodes an envelope, dispatches it and writes the reply before it
// reads the next, the same way for GET and PUT, so replies leave in
// request order. A client that pipelines is simply not read from while a
// request runs — backpressure without a protocol-level window. A PUT
// waiting on its WAL fsync holds up only what the engine lock it holds
// would hold up anyway (DESIGN.md "One engine lock"). The decoded
// message aliases the channel's receive scratch, which is safe because
// the store copies what it keeps and nothing reads the message after
// the reply is written; a GET's reply is sealed straight from the
// engine's record views, which nothing writes. The session's timeouts
// are one watchdog, not a deadline per request: it closes the
// connection once the stamped phase has waited idleTimeout for a
// request or writeTimeout on a reply. Serving is a phase of its own, so
// a request that arrived in time always gets its reply.
func (s *Server) handleMux(conn net.Conn, ch *wire.Channel, owner enclave.Measurement, flushBytes func()) {
	var state atomic.Uint64
	dog := wire.NewWatchdog(min(s.idleTimeout, s.writeTimeout), 4)
	stamp := func(phase uint64) { state.Store(dog.Tick()<<2 | phase) }
	dog.Start(func(tick uint64) bool {
		switch st := state.Load(); {
		case st&3 == phaseDone:
			return false
		case st&3 == phaseRead && dog.Overdue(st>>2, tick, s.idleTimeout):
		case st&3 == phaseWrite && dog.Overdue(st>>2, tick, s.writeTimeout):
			s.logf("store: reply to %v not written within %v", conn.RemoteAddr(), s.writeTimeout)
		default:
			return true
		}
		conn.Close()
		return false
	})
	defer stamp(phaseDone)
	for {
		stamp(phaseRead)
		payload, err := ch.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("store: recv from %v: %v", conn.RemoteAddr(), err)
			}
			return
		}
		stamp(phaseServe)
		id, tc, msg, err := wire.UnmarshalEnvelope(payload)
		if err != nil {
			s.logf("store: bad envelope from %v: %v", conn.RemoteAddr(), err)
			return
		}
		req := request{id: id, msg: msg, tc: tc}
		if tc.Valid() {
			req.readAt = time.Now()
		}
		if err := s.serve(conn, ch, owner, req, flushBytes, func() { stamp(phaseWrite) }); err != nil {
			// Internal failure (store closed, I/O) or a failed write:
			// returning closes the connection and ends the session.
			s.logf("store: %v", err)
			return
		}
	}
}

// serve dispatches one request and writes its reply, calling writing
// as the write starts, and observes it in speed_server_request_seconds
// once it was dispatched, whether or not the write succeeds.
func (s *Server) serve(conn net.Conn, ch *wire.Channel, owner enclave.Measurement, req request, flushBytes, writing func()) error {
	if s.tel != nil {
		s.tel.inflight.Add(1)
		defer s.tel.inflight.Add(-1)
	}
	start := time.Now()
	reply, err := s.dispatch(owner, req.msg)
	if err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	s.recordSpan(req, reply, start)
	s.maybeSlowLog(opName(req.msg), conn.RemoteAddr(), req.tc, time.Since(start))

	writing()
	err = ch.SendEnvelope(req.id, reply)
	if s.tel != nil {
		s.tel.reqSeconds[req.msg.Kind()].Observe(time.Since(start))
	}
	if err != nil {
		return fmt.Errorf("send to %v: %w", conn.RemoteAddr(), err)
	}
	if s.tel != nil {
		flushBytes()
	}
	return nil
}

// requestOps is the one table of the requests the server serves: the
// span and slow-request name of each — one per operation, whatever its
// item count — and the op label of its speed_server_request_seconds
// series.
var requestOps = map[wire.Kind]struct{ span, label string }{
	wire.KindGetRequest: {"store_get", "get"},
	wire.KindPutRequest: {"store_put", "put"},
}

// opName labels a request message for spans and slow-request lines.
func opName(m wire.Message) string {
	if op, ok := requestOps[m.Kind()]; ok {
		return op.span
	}
	return "store_request"
}

// outcome summarises a served request for its span: hit or miss for a
// GET of one tag, otherwise the item count.
func outcome(req, reply wire.Message) string {
	switch m := req.(type) {
	case wire.GetRequest:
		if r, ok := reply.(wire.GetResponse); ok && len(m.Tags) == 1 && len(r.Results) == 1 {
			if r.Results[0].Found {
				return "hit"
			}
			return "miss"
		}
		return fmt.Sprintf("%d tags", len(m.Tags))
	case wire.PutRequest:
		return fmt.Sprintf("%d items", len(m.Items))
	}
	return ""
}

// recordSpan records one sampled request's server-side span into the
// registry's trace ring: queue_wait covers envelope decode to dispatch
// (the session reads a request only once the one before it is answered,
// so no request waits there behind another), handle covers the store
// operation. The span links to the caller's span through ParentID, so
// /debug/trace?id= on this node contributes its part of the assembled
// cross-node trace.
func (s *Server) recordSpan(req request, reply wire.Message, start time.Time) {
	if s.tel == nil || !req.tc.Valid() {
		return
	}
	now := time.Now()
	queue := start.Sub(req.readAt)
	handle := now.Sub(start)
	s.tel.reg.Trace().Add(telemetry.TraceEvent{
		Time:     now,
		Name:     opName(req.msg),
		Outcome:  outcome(req.msg, reply),
		TotalNS:  now.Sub(req.readAt).Nanoseconds(),
		TraceID:  req.tc.TraceIDHex(),
		SpanID:   wire.SpanIDHex(wire.NewSpanID()),
		ParentID: wire.SpanIDHex(req.tc.Parent),
		Node:     s.tel.reg.Node(),
		Phases: []telemetry.PhaseSpan{
			{Name: "queue_wait", StartNS: 0, DurNS: queue.Nanoseconds()},
			{Name: "handle", StartNS: queue.Nanoseconds(), DurNS: handle.Nanoseconds()},
		},
	})
}

// slowLogGap rate-limits slow-request logging to one line per gap.
const slowLogGap = time.Second

// maybeSlowLog emits the structured slow-request line when dispatch
// exceeded the WithSlowRequestLog threshold and the rate limiter
// allows it.
func (s *Server) maybeSlowLog(op string, peer net.Addr, tc wire.TraceContext, took time.Duration) {
	if s.slowThreshold <= 0 || took < s.slowThreshold {
		return
	}
	now := time.Now().UnixNano()
	last := s.slowLast.Load()
	if now-last < int64(slowLogGap) || !s.slowLast.CompareAndSwap(last, now) {
		return
	}
	trace := "-"
	if tc.Valid() {
		trace = tc.TraceIDHex()
	}
	s.logf("store: slow request op=%s peer=%v total=%s threshold=%s trace=%s",
		op, peer, took, s.slowThreshold, trace)
}

// replyBudget is the sealed payload one reply may carry: a GET whose
// full answer would pass it is answered as a prefix — always
// at least one item — and the client asks again for the rest. Half a
// frame, so per-item framing can never tip a reply over
// wire.MaxFrameSize and a legal request can never kill its session.
const replyBudget = wire.MaxFrameSize / 2

// dispatch handles one protocol message on behalf of the attested
// application owner and produces the reply. The in-process loopback
// client (dedup.LocalClient) does not come through here: it calls
// WireGet and WirePut, the same item handlers dispatch uses.
func (s *Server) dispatch(owner enclave.Measurement, msg wire.Message) (wire.Message, error) {
	observe := func(items int) {
		if s.tel != nil {
			s.tel.batchSize.Observe(time.Duration(items))
		}
	}
	switch m := msg.(type) {
	case wire.GetRequest:
		observe(len(m.Tags))
		results, err := s.store.WireGet(owner, m.Tags, replyBudget)
		return wire.GetResponse{Results: results}, err
	case wire.PutRequest:
		observe(len(m.Items))
		results, err := s.store.WirePut(owner, m.Items)
		return wire.PutResponse{Results: results}, err
	default:
		return nil, fmt.Errorf("store: unexpected message %v", msg.Kind())
	}
}
