package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
)

// Span names. Every timed call of a traced run is a span recorded from
// the benchmark's own files, around the calls into each layer.
const (
	spanRequest = "loadgen.request"   // one Execute / ExecuteBatch, send to completion
	spanCompute = "app.compute"       // the marked computation, child of its request
	spanCompact = "logengine.compact" // a Store.Compact the load generator triggered
)

// span is one timed interval. IDs are positions in the pass's span list
// starting at 1; Parent 0 means a root.
type span struct {
	Pass    string `json:"pass"`
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns from the start of the pass
	End     int64  `json:"end"`
	Parent  int32  `json:"parent"`
	Request int32  `json:"request"`
}

// tracer keeps one pass's spans in memory; they are written out when
// the run ends.
type tracer struct {
	pass string

	mu    sync.Mutex
	spans []span
	// reqOf[id] is the request whose call computes input id (its first
	// occurrence in the segment); reqSpan[r] is request r's span.
	reqOf   []int32
	reqSpan []int32
	// now is the pass clock, ns from the start of the pass; whoever
	// runs the pass installs it.
	now func() int64
}

func newTracer(pass string) *tracer { return &tracer{pass: pass} }

// attach sizes the tracer for a segment and indexes which request each
// input belongs to.
func (t *tracer) attach(st *stream, seg *segment) {
	t.spans = make([]span, 0, len(seg.reqs)+len(seg.ids))
	t.reqSpan = make([]int32, len(seg.reqs))
	t.reqOf = make([]int32, len(st.inputs))
	for i := range t.reqOf {
		t.reqOf[i] = -1
	}
	for r, rq := range seg.reqs {
		for _, id := range seg.ids[rq.first : rq.first+rq.n] {
			if t.reqOf[id] < 0 {
				t.reqOf[id] = int32(r)
			}
		}
	}
}

// begin opens request r's span and returns its ID.
func (t *tracer) begin(name string, r int32, start int64) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, span{Pass: t.pass, Name: name, Start: start, Request: r})
	id := int32(len(t.spans))
	if int(r) < len(t.reqSpan) {
		t.reqSpan[r] = id
	}
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32, end int64) {
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// child records a finished span caused by the request that input id
// belongs to.
func (t *tracer) child(name string, start, end int64, id uint32) {
	t.mu.Lock()
	s := span{Pass: t.pass, Name: name, Start: start, End: end, Request: -1}
	if int(id) < len(t.reqOf) && t.reqOf[id] >= 0 {
		s.Request = t.reqOf[id]
		s.Parent = t.reqSpan[s.Request]
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the length in ns of every span called name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeSpans appends every tracer's spans to path as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
