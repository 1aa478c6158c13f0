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

// chanMux multiplexes one secure channel among concurrent callers:
// requests are enveloped with a fresh request ID and written directly
// (wire.Channel.Send is internally serialised), while a single
// reader goroutine correlates responses — which may arrive in any
// order — back to their waiting callers. N goroutines share one
// attested channel and their round trips overlap on the wire.
//
// Errors poison the channel: any transport error, malformed envelope or
// request timeout is terminal for the whole mux (the channel's cipher
// counters cannot be trusted afterwards). Every in-flight waiter is
// failed with the same error and the owning RemoteClient re-dials on
// the next attempt.
type chanMux struct {
	ch     *wire.Channel
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan muxResult
	err     error // terminal error; nil while healthy

	readerDone chan struct{}
}

type muxResult struct {
	msg wire.Message
	err error
}

func newChanMux(ch *wire.Channel) *chanMux {
	m := &chanMux{
		ch:         ch,
		pending:    make(map[uint64]chan muxResult),
		readerDone: make(chan struct{}),
	}
	go m.readLoop()
	return m
}

// readLoop is the demultiplexer: it owns Recv on the channel and routes
// each response envelope to the caller that registered its request ID.
// Responses for unknown IDs are dropped — a peer must not originate
// requests, and with the kill-on-timeout discipline there are no
// abandoned in-flight IDs to collide with.
func (m *chanMux) readLoop() {
	defer close(m.readerDone)
	for {
		//speedlint:ignore deadline kill-on-timeout: roundTrip owns the clock and fails the mux, which closes the channel and unblocks this Recv
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
		// which the next Recv reuses — copy before it crosses to the
		// waiting goroutine.
		msg = wire.OwnMessage(msg)
		m.mu.Lock()
		w, ok := m.pending[id]
		if ok {
			delete(m.pending, id)
		}
		m.mu.Unlock()
		if ok {
			w <- muxResult{msg: msg} // buffered: never blocks
		}
	}
}

// fail marks the mux broken (first error wins), closes the channel so
// the reader unwinds, and delivers the terminal error to every
// in-flight waiter. Idempotent.
func (m *chanMux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		m.ch.Close()
	} else {
		err = m.err
	}
	pending := m.pending
	m.pending = make(map[uint64]chan muxResult)
	m.mu.Unlock()
	for _, w := range pending {
		w <- muxResult{err: err} // buffered: never blocks
	}
}

// dead reports whether the mux has failed; the owning client then drops
// it and re-dials.
func (m *chanMux) dead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err != nil
}

// roundTrip issues one request and waits for its correlated response.
// tc, when sampled, rides in the envelope header so the store can link
// its spans to the caller's trace. timeout > 0 bounds the wait; expiry
// kills the mux so the owning client re-dials. A request too large for
// a frame is refused before a byte is written or the channel's sequence
// number moves, so it fails alone and the mux lives on.
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

	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	select {
	case r := <-w:
		return r.msg, r.err
	case <-timeoutC:
		err := fmt.Errorf("dedup: request %d: %w", id, os.ErrDeadlineExceeded)
		m.fail(err)
		return nil, err
	}
}
