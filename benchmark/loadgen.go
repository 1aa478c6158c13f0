package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epcSamples is how many times per window Platform.EPCUsed is sampled
// (at equal call counts; ten per slice). The log engine's memtable
// makes EPC use a saw-tooth, and ten samples of a saw-tooth do not find
// its peak reliably.
const epcSamples = 10 * numSlices

// window is the raw record of one measured pass over a segment.
type window struct {
	calls int
	// lat[i] is call i's latency in ns, in stream order: from the
	// instant the call was due in an open loop, from the instant it was
	// sent in a closed loop. Every call of a batch has the batch's
	// latency. service[i] is always send-to-completion.
	lat, service []int64
	// late[r] is how long after its due time request r was sent (open
	// loop; zero in a closed loop).
	late []int64
	// sliceEnd[k] is when slice k ended, ns from the start of the
	// window: when its last call completed or, with compactEachSlice,
	// when the compaction that follows that call did.
	sliceEnd [numSlices]int64
	// backlog[k] is the largest number of due-but-unsent requests seen
	// while sending a request of slice k.
	backlog [numSlices]int

	// compact is the time spent in the load generator's own
	// Store.Compact calls (workload.compactEachSlice), inside wall.
	wall, cpu, busy, compact time.Duration
	failed                   int
	epcPeak                  int64
	resultBytes              int64
	mallocs, heap            uint64 // allocations and bytes allocated during the window
	before, after            counters
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// callLatency is the latency arithmetic of one request. In an open
// loop a call's latency runs from the instant it was due, so the wait a
// stall imposes on the requests behind it is counted; in a closed loop
// it runs from the instant it was sent. service is always
// send-to-completion.
func callLatency(open bool, due, sent, done int64) (lat, service int64) {
	if open {
		return done - due, done - sent
	}
	return done - sent, done - sent
}

// measure runs seg through d once and records it. Spans go to tr when
// it is non-nil.
func measure(d *deployment, seg *segment, tr *tracer) *window {
	w := &window{
		calls:   len(seg.ids),
		lat:     make([]int64, len(seg.ids)),
		service: make([]int64, len(seg.ids)),
		late:    make([]int64, len(seg.reqs)),
	}
	for _, id := range seg.ids {
		w.resultBytes += int64(inputSize(d.st.inputs[id]))
	}
	open := d.w.rate > 0
	bounds := sliceBounds(w.calls)
	sampleEvery := max(w.calls/epcSamples, 1)
	if tr != nil {
		tr.attach(d.st, seg)
	}
	d.tr = tr
	defer func() { d.tr = nil }()

	// Collect what set-up left behind now, so the window does not pay
	// for it.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs, w.heap = ms.Mallocs, ms.TotalAlloc
	w.before = d.read()
	cpu0 := cpuTime()

	var (
		next      atomic.Int64 // next request to claim
		completed atomic.Int64 // calls finished
		epcPeak   atomic.Int64
		failed    atomic.Int64
		busy      atomic.Int64
		compact   atomic.Int64
		mu        sync.Mutex // guards sliceEnd and backlog
		wg        sync.WaitGroup
	)
	sampleEPC := func() {
		if d.platform == nil {
			return
		}
		used := d.platform.EPCUsed()
		for {
			cur := epcPeak.Load()
			if used <= cur || epcPeak.CompareAndSwap(cur, used) {
				return
			}
		}
	}
	sampleEPC()
	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	if tr != nil {
		tr.now = now
	}
	for g := 0; g < d.w.dispatchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dueCursor := 0
			for {
				r := int(next.Add(1) - 1)
				if r >= len(seg.reqs) {
					return
				}
				rq := seg.reqs[r]
				sent := now()
				if open {
					if wait := rq.due - sent; wait > 0 {
						time.Sleep(time.Duration(wait))
						sent = now()
					}
					w.late[r] = sent - rq.due
					// Requests already due that nobody has claimed.
					for dueCursor < len(seg.reqs) && seg.reqs[dueCursor].due <= sent {
						dueCursor++
					}
					if waiting := dueCursor - int(next.Load()); waiting > 0 {
						k := r * numSlices / len(seg.reqs)
						mu.Lock()
						w.backlog[k] = max(w.backlog[k], waiting)
						mu.Unlock()
					}
				}
				var sp int32
				if tr != nil {
					sp = tr.begin(spanRequest, int32(r), sent)
				}
				f := d.do(seg, rq)
				done := now()
				if tr != nil {
					tr.end(sp, done)
				}
				lat, service := callLatency(open, rq.due, sent, done)
				for i := rq.first; i < rq.first+rq.n; i++ {
					w.lat[i], w.service[i] = lat, service
				}
				busy.Add(done - sent)
				failed.Add(int64(f))
				after := int(completed.Add(int64(rq.n)))
				before := after - int(rq.n)
				if after/sampleEvery != before/sampleEvery {
					sampleEPC()
				}
				for k := 0; k < numSlices; k++ {
					if before >= bounds[k+1] || after < bounds[k+1] {
						continue
					}
					// The last call of slice k just completed.
					if d.w.compactEachSlice && d.rung == rungReal {
						t0 := now()
						for _, s := range d.stores {
							if err := s.Compact(); err != nil {
								failed.Add(1)
							}
						}
						done = now()
						compact.Add(done - t0)
						if tr != nil {
							tr.end(tr.begin(spanCompact, int32(r), t0), done)
						}
					}
					mu.Lock()
					w.sliceEnd[k] = done
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.after = d.read()
	runtime.ReadMemStats(&ms)
	w.mallocs, w.heap = ms.Mallocs-w.mallocs, ms.TotalAlloc-w.heap
	w.busy = time.Duration(busy.Load())
	w.compact = time.Duration(compact.Load())
	w.failed = int(failed.Load())
	w.epcPeak = epcPeak.Load()
	return w
}

// sliceRates returns each slice's throughput in calls per second.
func (w *window) sliceRates() []float64 {
	bounds := sliceBounds(w.calls)
	out := make([]float64, 0, numSlices)
	var prev int64
	for k := 0; k < numSlices; k++ {
		if d := w.sliceEnd[k] - prev; d > 0 {
			out = append(out, float64(bounds[k+1]-bounds[k])/(float64(d)/1e9))
		}
		prev = w.sliceEnd[k]
	}
	return out
}
