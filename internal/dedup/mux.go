package dedup

import (
	"errors"
	"fmt"
	"os"
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
// the next attempt.
type chanMux struct {
	ch     *wire.Channel
	nextID atomic.Uint64
	token  chan struct{} // full while no caller is reading

	mu      sync.Mutex
	pending map[uint64]chan muxResult
	err     error // terminal error; nil while healthy
}

type muxResult struct {
	msg wire.Message
	err error
}

func newChanMux(ch *wire.Channel) *chanMux {
	m := &chanMux{
		ch:      ch,
		token:   make(chan struct{}, 1),
		pending: make(map[uint64]chan muxResult),
	}
	m.token <- struct{}{}
	return m
}

// readUntil is the token holder's demultiplexer: it routes each reply to
// the caller that registered its request ID until w, its own, is
// answered (or failed). Replies for unknown IDs are dropped — a peer
// must not originate requests, and with the kill-on-timeout discipline
// there are no abandoned in-flight IDs to collide with.
func (m *chanMux) readUntil(w chan muxResult) {
	for len(w) == 0 {
		// No read deadline: roundTrip's timer fails the mux on
		// timeout, which closes the channel and unblocks this Recv.
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
		// which the next Recv reuses — copy before it reaches a caller.
		msg = wire.OwnMessage(msg)
		m.mu.Lock()
		c, ok := m.pending[id]
		if ok {
			delete(m.pending, id)
		}
		m.mu.Unlock()
		if ok {
			c <- muxResult{msg: msg} // buffered: never blocks
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

// expire is request id's deadline. While the request is unanswered —
// its pending entry, which readUntil deletes before delivering, is
// still there — it fails the mux, which unblocks the token holder's
// Recv. Once the reply was routed, the caller has it even if its timer
// has not been stopped yet, and the mux stays healthy.
func (m *chanMux) expire(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, unanswered := m.pending[id]; unanswered {
		m.failLocked(fmt.Errorf("dedup: request %d: %w", id, os.ErrDeadlineExceeded))
	}
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
		w <- muxResult{err: err} // buffered, and nothing else sends to a pending waiter: never blocks
	}
	m.pending = make(map[uint64]chan muxResult)
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
// to the caller's trace. timeout > 0 bounds the wait; expiry kills the
// mux so the owning client re-dials. A request too large for a frame is
// refused before a byte is written or the channel's sequence number
// moves, so it fails alone and the mux lives on.
func (m *chanMux) roundTrip(req wire.Message, tc wire.TraceContext, timeout time.Duration) (wire.Message, error) {
	id := m.nextID.Add(1)
	w := make(chan muxResult, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.pending[id] = w
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

	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() { m.expire(id) })
		defer timer.Stop()
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
