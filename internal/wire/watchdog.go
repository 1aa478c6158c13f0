package wire

import (
	"sync/atomic"
	"time"
)

// Watchdog is a connection's one timer. It fires n times per the
// shortest timeout it enforces and is re-armed only when it fires; the
// hot path stamps Tick into state its check reads, so a request costs
// no timer operation.
type Watchdog struct {
	period time.Duration
	ticks  atomic.Uint64
}

// NewWatchdog returns an unarmed watchdog that fires n times per
// shortest, and at most once a millisecond.
func NewWatchdog(shortest time.Duration, n int) *Watchdog {
	return &Watchdog{period: max((shortest+time.Duration(n-1))/time.Duration(n), time.Millisecond)}
}

// Start arms the watchdog: each firing runs check on the timer's
// goroutine with the new tick, and re-arms unless check returns false,
// which is how its owner stops it.
func (w *Watchdog) Start(check func(tick uint64) bool) {
	time.AfterFunc(w.period, func() {
		if check(w.ticks.Add(1)) {
			w.Start(check)
		}
	})
}

// Tick is the number of firings so far, the stamp Overdue reads.
func (w *Watchdog) Tick() uint64 { return w.ticks.Load() }

// Overdue reports whether a stamp taken at tick at has waited limit by
// tick now. Firings are at least a period apart, so it has waited
// between now-at-1 and now-at periods: a timeout fires no earlier than
// due and at most one period late (limit rounded up to whole periods).
func (w *Watchdog) Overdue(at, now uint64, limit time.Duration) bool {
	return now > at && time.Duration(now-at-1)*w.period >= limit
}
