// Package telemetry is SPEED's lightweight observability core: atomic
// counters and gauges, log-bucketed latency histograms with quantile
// snapshots, and a sampled trace-event ring buffer, exposed over HTTP
// in Prometheus text-exposition format and as JSON.
//
// The paper's value claim is a latency trade — a dedup hit must beat
// recomputing (Section VI, Fig. 5/6) — so the instrumentation is
// designed to stay on in production: the hot path performs only atomic
// adds into pre-registered metrics (no locks, no allocation, no label
// rendering), and every metric type tolerates a nil receiver so an
// uninstrumented deployment pays a single pointer test per site.
//
// Registration is idempotent: requesting a metric whose full name
// (name plus rendered labels) is already registered returns the
// existing instance. Function-backed metrics (CounterFunc, GaugeFunc)
// accumulate instead — re-registering appends the new closure and the
// exported value is the sum — so short-lived components (for example
// the per-case environments of the bench harness) can share one
// registry without losing counts from closed predecessors.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, rendered into the Prometheus label
// set at registration time (never on the hot path).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricMeta is the identity shared by every metric type.
type metricMeta struct {
	name string // family name, e.g. speed_execute_seconds
	help string
	full string // name{k="v",...} — the registry key
	lbls []Label
}

// renderFull builds the canonical full name with sorted labels.
func renderFull(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing atomic counter. All methods
// are safe on a nil receiver (no-ops), so call sites need no telemetry
// guard.
type Counter struct {
	metricMeta
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
type Gauge struct {
	metricMeta
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CounterFunc exports a monotone value computed on demand (typically a
// closure over an existing stats snapshot). Re-registering the same
// full name appends the function; the exported value is the sum, so
// multiple instrumented components can feed one metric.
type CounterFunc struct {
	metricMeta
	mu  sync.Mutex
	fns []func() int64
}

// Value sums the registered functions.
func (c *CounterFunc) Value() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	fns := c.fns
	c.mu.Unlock()
	var total int64
	for _, fn := range fns {
		total += fn()
	}
	return total
}

func (c *CounterFunc) add(fn func() int64) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

// GaugeFunc exports an instantaneous value computed on demand, with
// the same accumulating re-registration semantics as CounterFunc.
type GaugeFunc struct {
	metricMeta
	mu  sync.Mutex
	fns []func() float64
}

// Value sums the registered functions.
func (g *GaugeFunc) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	fns := g.fns
	g.mu.Unlock()
	var total float64
	for _, fn := range fns {
		total += fn()
	}
	return total
}

func (g *GaugeFunc) add(fn func() float64) {
	g.mu.Lock()
	g.fns = append(g.fns, fn)
	g.mu.Unlock()
}

// Registry holds a set of named metrics plus the trace ring. A nil
// *Registry is the no-op registry: every NewXxx returns nil and the
// nil metrics swallow updates, which is how instrumented code runs
// with telemetry disabled.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
	trace   *TraceRing
	node    string
}

// NewRegistry creates an empty registry with a trace ring of the
// default capacity.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]any),
		trace:   NewTraceRing(DefaultTraceCapacity),
	}
}

// Trace returns the registry's trace-event ring (nil for a nil
// registry).
func (r *Registry) Trace() *TraceRing {
	if r == nil {
		return nil
	}
	return r.trace
}

// SetNode records the externally-visible address of the process this
// registry instruments (typically the store or metrics listen address).
// It is included in /debug/trace responses so traces assembled from
// several nodes stay attributable.
func (r *Registry) SetNode(addr string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.node = addr
	r.mu.Unlock()
}

// Node returns the address recorded by SetNode ("" when unset or for a
// nil registry).
func (r *Registry) Node() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.node
}

// register installs the metric under its full name, returning the
// already-registered instance when one exists. It panics when the
// existing metric has a different type — a programming error caught at
// wiring time, never on the hot path.
func (r *Registry) register(full string, fresh any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.metrics[full]; ok {
		if fmt.Sprintf("%T", existing) != fmt.Sprintf("%T", fresh) {
			panic(fmt.Sprintf("telemetry: %s already registered as %T", full, existing))
		}
		return existing
	}
	r.metrics[full] = fresh
	return fresh
}

// NewCounter registers (or returns the existing) counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{metricMeta: metricMeta{name: name, help: help, full: renderFull(name, labels), lbls: labels}}
	return r.register(c.full, c).(*Counter)
}

// NewGauge registers (or returns the existing) gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{metricMeta: metricMeta{name: name, help: help, full: renderFull(name, labels), lbls: labels}}
	return r.register(g.full, g).(*Gauge)
}

// NewCounterFunc registers fn under the name; if the name exists, fn
// is appended and the exported value is the sum of all functions.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64, labels ...Label) *CounterFunc {
	if r == nil {
		return nil
	}
	c := &CounterFunc{metricMeta: metricMeta{name: name, help: help, full: renderFull(name, labels), lbls: labels}}
	c = r.register(c.full, c).(*CounterFunc)
	c.add(fn)
	return c
}

// NewGaugeFunc registers fn under the name with the same accumulating
// semantics as NewCounterFunc.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) *GaugeFunc {
	if r == nil {
		return nil
	}
	g := &GaugeFunc{metricMeta: metricMeta{name: name, help: help, full: renderFull(name, labels), lbls: labels}}
	g = r.register(g.full, g).(*GaugeFunc)
	g.add(fn)
	return g
}

// NewHistogram registers (or returns the existing) latency histogram.
func (r *Registry) NewHistogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{metricMeta: metricMeta{name: name, help: help, full: renderFull(name, labels), lbls: labels}}
	return r.register(h.full, h).(*Histogram)
}

// sorted returns the registered metrics ordered by full name, which
// groups label variants of one family together for exposition.
func (r *Registry) sorted() []any {
	r.mu.Lock()
	out := make([]any, 0, len(r.metrics))
	names := make([]string, 0, len(r.metrics))
	for full := range r.metrics {
		names = append(names, full)
	}
	sort.Strings(names)
	for _, full := range names {
		out = append(out, r.metrics[full])
	}
	r.mu.Unlock()
	return out
}
