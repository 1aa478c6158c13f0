package dedup

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"speed/internal/wire"
)

// chanMux multiplexes one secure channel among concurrent callers and
// starts no goroutine: requests are enveloped with a fresh request ID
// and written directly (wire.Channel.Send is internally serialised),
// and the caller holding the one-slot read token is the channel's only
// reader, routing replies — which may arrive in any order — to their
// callers until its own arrives. A lone caller thus sends and receives
// on its own goroutine, while N goroutines share one attested channel.
//
// Errors poison the channel: any transport error, malformed envelope or
// request timeout is terminal for the whole mux (the channel's cipher
// counters cannot be trusted afterwards). Every in-flight waiter is
// failed with the same error and the owning RemoteClient re-dials on
// the next attempt. Request timeouts are one wire.Watchdog per mux.
type chanMux struct {
	ch      *wire.Channel
	nextID  atomic.Uint64
	token   chan struct{} // full while no caller is reading
	timeout time.Duration
	dog     *wire.Watchdog // nil when timeout is 0

	mu      sync.Mutex
	pending map[uint64]waiter
	err     error // terminal error; nil while healthy
}

// waiter is a request in flight: its reply's way and its send tick.
type waiter struct {
	c    chan muxResult
	sent uint64
}

type muxResult struct {
	msg wire.Message
	err error
}

// newChanMux wraps ch; timeout > 0 bounds every request's wait for its
// reply, late by at most one watchdog period, an eighth of it.
func newChanMux(ch *wire.Channel, timeout time.Duration) *chanMux {
	m := &chanMux{
		ch:      ch,
		token:   make(chan struct{}, 1),
		timeout: timeout,
		pending: make(map[uint64]waiter),
	}
	m.token <- struct{}{}
	if timeout > 0 {
		m.dog = wire.NewWatchdog(timeout, 8)
		m.dog.Start(m.watch)
	}
	return m
}

// watch is the watchdog's check: it fails the mux, unblocking the token
// holder's Recv, once a request has waited the timeout; a routed reply
// has left pending. It stops the watchdog once the mux is dead.
func (m *chanMux) watch(tick uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, w := range m.pending {
		if m.dog.Overdue(w.sent, tick, m.timeout) {
			m.failLocked(fmt.Errorf("dedup: request %d: %w", id, os.ErrDeadlineExceeded))
			break
		}
	}
	return m.err == nil
}

// readUntil is the token holder's demultiplexer: it routes each reply to
// the caller that registered its request ID until w, its own, is
// answered (or failed). Replies for unknown IDs are dropped — a peer
// must not originate requests, and with the kill-on-timeout discipline
// there are no abandoned in-flight IDs to collide with.
func (m *chanMux) readUntil(w chan muxResult) {
	for len(w) == 0 {
		// No read deadline: the watchdog fails the mux on timeout,
		// which closes the channel and unblocks this Recv.
		payload, err := m.ch.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		id, _, msg, err := m.ch.ParseEnvelope(payload)
		if err != nil {
			m.fail(fmt.Errorf("dedup: mux: %w", err))
			return
		}
		// The decoded message aliases the channel's receive scratch,
		// which the next Recv reuses: a GET reply with a hit, whose
		// sealed bytes the caller keeps, takes its frame along.
		if r, ok := msg.(wire.GetResponse); ok && slices.ContainsFunc(r.Results, func(g wire.GetResult) bool { return g.Found }) {
			m.ch.Detach()
		}
		m.mu.Lock()
		p, ok := m.pending[id]
		if ok {
			delete(m.pending, id)
		}
		m.mu.Unlock()
		if ok {
			p.c <- muxResult{msg: msg} // buffered: never blocks
		}
	}
}

// fail marks the mux broken (first error wins), closes the channel so
// a caller blocked in Recv unwinds, and delivers the terminal error to
// every in-flight waiter. Idempotent.
func (m *chanMux) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failLocked(err)
}

// failLocked is fail with m.mu held.
func (m *chanMux) failLocked(err error) {
	if m.err == nil {
		m.err = err
		m.ch.Close()
	} else {
		err = m.err
	}
	for _, w := range m.pending {
		w.c <- muxResult{err: err} // buffered, and nothing else sends to a pending waiter: never blocks
	}
	m.pending = make(map[uint64]waiter)
}

// dead reports whether the mux has failed; the owning client then drops
// it and re-dials.
func (m *chanMux) dead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err != nil
}

// roundTrip issues one request and waits for its reply, delivered by the
// token holder or read here once this caller takes the token. tc, when
// sampled, rides in the envelope header so the store can link its spans
// to the caller's trace. The watchdog bounds the wait; expiry kills the
// mux so the owning client re-dials. A request too large for a frame is
// refused before a byte is written or the channel's sequence number
// moves, so it fails alone and the mux lives on.
func (m *chanMux) roundTrip(req wire.Message, tc wire.TraceContext) (wire.Message, error) {
	id := m.nextID.Add(1)
	w := make(chan muxResult, 1)
	var sent uint64
	if m.dog != nil {
		sent = m.dog.Tick()
	}
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.pending[id] = waiter{c: w, sent: sent}
	m.mu.Unlock()

	if err := m.ch.SendEnvelopeTrace(id, tc, req); err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			m.mu.Lock()
			delete(m.pending, id)
			m.mu.Unlock()
		} else {
			m.fail(err)
		}
		return nil, err
	}

	select {
	case r := <-w:
		return r.msg, r.err
	case <-m.token:
	}
	m.readUntil(w)
	m.token <- struct{}{}
	r := <-w
	return r.msg, r.err
}
