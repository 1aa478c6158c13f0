package dedup

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"speed/internal/mle"
	"speed/internal/wire"
)

// This file is the paper's one algorithm — tag → GET → verify/open or
// compute → seal → PUT (Algorithms 1/2 + Fig. 3) — as one staged
// pipeline over a list of items. Execute runs it over one item,
// ExecuteBatch over n. Everything up to sealing runs in the call's one
// ECALL; the PUT messages leave after it returns and before the call
// does. The store is skipped for one reason only: the runtime is
// degraded. See DESIGN.md "The execute pipeline".

// BatchResult is one item's outcome from ExecuteBatch. Err is per-item:
// one failed lookup or computation does not poison its batch siblings.
type BatchResult struct {
	Result  []byte
	Outcome Outcome
	Err     error
}

// Execute runs the marked computation func(input) with deduplication:
// Algorithm 1 on a miss, Algorithm 2 plus the Fig. 3 verification on a
// hit. compute must be the deterministic function the FuncID
// identifies. Concurrent identical calls in this process share one
// computation (OutcomeCoalesced) before the store is even consulted.
func (rt *Runtime) Execute(id mle.FuncID, input []byte, compute func([]byte) ([]byte, error)) ([]byte, Outcome, error) {
	items := []item{{input: input}}
	if err := rt.run(false, id, items, compute); err != nil {
		return nil, 0, err
	}
	if err := items[0].Err; err != nil {
		return nil, 0, err
	}
	return items[0].Result, items[0].Outcome, nil
}

// ExecuteBatch runs the marked computation over many inputs with
// deduplication, amortising the per-call overheads that dominate small
// computations: the batch enters the enclave once, consults the store
// with one batched GET (one OCALL, one wire round trip), computes the
// misses with bounded parallelism, and flushes the fresh results with
// one batched PUT. Results align with inputs positionally.
//
// Coalescing composes with batching: duplicate inputs within the batch
// are computed once and shared (OutcomeCoalesced), items whose tag is
// already in flight in this process join that flight, and the batch's
// own leaders are visible to concurrent Execute callers. A top-level
// error is returned only when the runtime is unusable (closed); store
// and compute failures land in the matching item's Err.
func (rt *Runtime) ExecuteBatch(id mle.FuncID, inputs [][]byte, compute func([]byte) ([]byte, error)) ([]BatchResult, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	items := make([]item, len(inputs))
	for i := range items {
		items[i].input = inputs[i]
	}
	if err := rt.run(true, id, items, compute); err != nil {
		return nil, err
	}
	results := make([]BatchResult, len(items))
	for i := range items {
		results[i] = items[i].BatchResult
	}
	return results, nil
}

// item is the pipeline's per-item state: the caller sets input, the
// stages fill in the rest in place, and the embedded BatchResult is
// what the caller gets back.
//
// The first item to claim a tag in this process leads it: it owns the
// lookup, the computation and the upload, and registers a flight.
// Every other item with that tag — in a concurrent call or later in
// the same one — is a joiner: it waits on the leader's flight and
// shares its result (OutcomeCoalesced).
type item struct {
	BatchResult
	input []byte
	tag   mle.Tag
	// flight is the flight this item registered as its tag's leader;
	// nil once published. joined is the flight a joiner waits on.
	flight, joined *flight
	// need marks a leader the store did not settle: it must be computed.
	need bool
	// replace: the stored entry failed verification (⊥), so the fresh
	// result overwrites it — a poisoned entry cannot permanently
	// disable reuse for its tag.
	replace bool
	// degraded: served compute-only because its GET failed or the
	// store client reports the store unhealthy; counted in
	// Stats.Degraded and never uploaded.
	degraded bool
}

func (it *item) leads() bool { return it.joined == nil }

// call is one trip through the pipeline: what every stage needs, so
// the stages below read as the algorithm's steps.
type call struct {
	rt      *Runtime
	id      mle.FuncID
	compute func([]byte) ([]byte, error)
	tc      wire.TraceContext
	span    execSpan
	items   []item
	sends   []func() // what the ECALL sealed, for send
	// preds holds, by item, the manifest predict opened from the host
	// record; nil when it opened none.
	preds []*openedManifest
	// fetched holds the chunks fetched for the call, those predict had
	// ride the lookup's GET first; fetchedAt indexes them by tag, and
	// opened holds each one's plaintext once verified.
	fetched   []wire.GetResult
	fetchedAt map[mle.Tag]int
	opened    [][]byte
}

// run is the one entry to the pipeline: the closed check, the call
// count, the sampling decision, the single ECALL every call costs, the
// untrusted tail after it, and the telemetry epilogue. batch selects
// how the call is reported: a single call lands in
// speed_execute_seconds{outcome}, a batch in speed_runtime_batch_items;
// both record their phases.
func (rt *Runtime) run(batch bool, id mle.FuncID, items []item, compute func([]byte) ([]byte, error)) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return errors.New("dedup: runtime closed")
	}
	rt.stats.Calls += int64(len(items))
	rt.mu.Unlock()

	c := call{rt: rt, id: id, compute: compute, items: items}
	// The sampling decision happens before any work, so a sampled call's
	// trace context can ride to every store node it touches.
	var rootSpan uint64
	c.tc, rootSpan = rt.startTrace()
	if rt.tel != nil {
		c.span = startSpan()
	}
	// However the pipeline exits, no registered flight may be left open
	// or every later identical call would block forever. A compute panic
	// still propagates to the caller; its waiters get an error.
	defer func() {
		for i := range items {
			if it := &items[i]; it.flight != nil {
				it.Err = fmt.Errorf("dedup: in-flight computation for tag %x... panicked", it.tag[:4])
				c.publish(it)
			}
		}
	}()
	err := rt.cfg.Enclave.ECall(func() error {
		c.execute()
		return nil
	})
	if err == nil {
		// Outside the enclave: send the sealed PUTs, then publish the
		// leaders' flights — only now, so a joiner never races its
		// leader's PUT to the store — and give the joiners their results.
		send(c.sends, &c.span)
		for i := range items {
			c.publish(&items[i])
		}
		c.share()
	}
	if rt.tel != nil {
		op, outcome, cerr := "execute_batch", Outcome(0), err
		total := time.Since(c.span.start)
		if batch {
			rt.tel.observePhases(&c.span)
			rt.tel.batchItems.Observe(time.Duration(len(items)))
		} else {
			op = "execute"
			if err == nil {
				outcome, cerr = items[0].Outcome, items[0].Err
			}
			rt.tel.record(&c.span, total, outcome, cerr, c.tc)
		}
		rt.recordTrace(op, id, c.tc, rootSpan, &c.span, outcome, total, cerr)
	}
	return err
}

// execute is the pipeline body, running inside the application
// enclave's ECALL: it ends once the fresh results are sealed.
func (c *call) execute() {
	// Algorithm 1/2 line 1: derive the tags inside the enclave.
	c.span.begin(phaseTag)
	for i := range c.items {
		c.items[i].tag = mle.ComputeTag(c.id, c.items[i].input)
	}
	c.span.end(phaseTag)

	c.partition()
	c.lookup()
	c.computeMisses()
	c.sealComputed()
}

// partition splits the call into leaders and joiners against the
// process-wide in-flight table. Registering each leader's flight as it
// goes makes a duplicate later in the same call a joiner like any
// other, and makes this call's leaders visible to concurrent callers.
func (c *call) partition() {
	rt := c.rt
	rt.flightMu.Lock()
	defer rt.flightMu.Unlock()
	for i := range c.items {
		it := &c.items[i]
		if it.joined = rt.inflight[it.tag]; it.joined != nil {
			it.joined.joiners++
		} else {
			it.flight = &flight{done: make(chan struct{})}
			rt.inflight[it.tag] = it.flight
		}
	}
}

// publish hands a leader's final result (or error) to the waiters on
// its flight and unregisters it; a no-op for a joiner or a leader
// already published. Leaders stay registered until their upload attempt
// has finished, so a joiner never races the leader's PUT to the store.
func (c *call) publish(it *item) {
	f := it.flight
	if f == nil {
		return
	}
	it.flight = nil
	// Unregistering and reading the joiner count under one lock settles
	// who joined: a later caller no longer finds the flight.
	c.rt.flightMu.Lock()
	delete(c.rt.inflight, it.tag)
	joiners := f.joiners
	c.rt.flightMu.Unlock()
	f.err = it.Err
	if joiners > 0 {
		// A private copy: the leader's caller owns Result and may mutate
		// it as soon as the call returns, while late waiters are still
		// copying out of the flight. Nobody joined, nobody reads it.
		f.result = append([]byte(nil), it.Result...)
	}
	close(f.done)
}

// lookup settles every leader the store can settle: one batched GET
// OCALL for all of them (Algorithm 1/2 line 2), carrying the chunks
// predict expects their manifests to need, then the Fig. 3
// verification of each hit. A degraded call — the store client reports
// the store unhealthy, or this call's GET failed — skips straight to
// computing everything: deduplication is an accelerator, not a
// correctness dependency.
func (c *call) lookup() {
	rt := c.rt
	down := rt.Degraded()
	var found []wire.GetResult
	if !down {
		tags := make([]mle.Tag, 0, len(c.items))
		for i := range c.items {
			if c.items[i].leads() {
				tags = append(tags, c.items[i].tag)
			}
		}
		if len(tags) == 0 {
			return
		}
		n := len(tags)
		if rt.chunker != nil {
			c.span.begin(phaseStoreGet)
			tags = c.predict(tags)
			c.span.end(phaseStoreGet)
		}
		var err error
		if found, err = rt.clientGet(c.tc, tags, &c.span); err != nil {
			rt.storeGetFailed(err)
			down = true
		} else if len(tags) > n {
			c.fetched, c.opened = found[n:], make([][]byte, len(tags)-n)
			rt.mu.Lock()
			rt.stats.ChunksPrefetched += int64(len(tags) - n)
			rt.stats.ChunksFetched += int64(len(tags) - n)
			rt.mu.Unlock()
		}
	}
	j := 0
	for i := range c.items {
		it := &c.items[i]
		switch {
		case !it.leads():
			continue
		case found == nil:
			it.need, it.degraded = true, down
		case found[j].Found:
			var pred *openedManifest
			if c.preds != nil {
				pred = c.preds[i]
			}
			c.verifyHit(it, pred, found[j].Sealed)
		default:
			it.need = true
		}
		j++
		if !it.need {
			c.publish(it)
		}
	}
}

// verifyHit settles one leader whose tag the store holds: Algorithm 2
// lines 4-6 plus the Fig. 3 verification, then — with chunking enabled,
// where the entry may be a sealed manifest rather than a whole result —
// reassembly from chunks before condemning it. A verified result is
// reused. ⊥ (the stored entry is poisoned, corrupted, or belongs to a
// computation we cannot perform) counts a verify failure, and the item
// is recomputed and replaces it. The store failing mid-reassembly is
// neither: it says nothing about the stored data, so it is booked like
// the primary GET failing.
func (c *call) verifyHit(it *item, pred *openedManifest, sealed mle.Sealed) {
	rt := c.rt
	c.span.begin(phaseVerifyDecrypt)
	defer c.span.end(phaseVerifyDecrypt)
	// The manifest predict opened is no whole result.
	var res []byte
	err := mle.ErrAuthFailed
	if !pred.is(sealed) {
		res, err = rce.Decrypt(c.id, it.input, sealed)
	}
	if err != nil && !errors.Is(err, mle.ErrAuthFailed) {
		it.Err = fmt.Errorf("decrypt result: %w", err)
		return
	}
	var manifests int64
	if err == nil && pred != nil {
		rt.record.put(it.tag, mle.Sealed{}) // the tag holds a whole result now
	} else if err != nil && rt.chunker != nil {
		res, err = c.manifestReuse(it, pred, sealed)
		switch {
		case err == nil:
			manifests = 1
		case errors.Is(err, errFetchChunks):
			rt.storeGetFailed(err)
			it.need, it.degraded = true, true
			return
		case !errors.Is(err, errNoManifest):
			// The manifest was authentic but its chunks were not
			// servable (missing, undecryptable, wrong length or
			// hash): say so loudly, then recompute and replace.
			rt.cfg.Logf("speed: chunked reassembly for tag %x... failed: %v; recomputing", it.tag[:4], err)
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if err != nil {
		it.need, it.replace = true, true
		rt.stats.VerifyFailures++
		return
	}
	it.Result, it.Outcome = res, OutcomeReused
	rt.stats.Reused++
	rt.stats.ManifestReuses += manifests
	rt.stats.BytesReused += int64(len(res))
}

// computeMisses runs the computation (Algorithm 1 line 4) for every
// leader the store did not settle. A lone miss is computed on the
// caller's goroutine, so a single call never pays for a goroutine and
// a compute panic propagates natively; several run GOMAXPROCS at a
// time, and the first panic among them is re-raised on the caller's
// goroutine once all have finished. The phase is timed as one
// wall-clock section: that is what the caller feels.
func (c *call) computeMisses() {
	var lone *item
	misses := 0
	for i := range c.items {
		if it := &c.items[i]; it.need {
			misses++
			lone = it
		}
	}
	if misses == 0 {
		return
	}
	c.span.begin(phaseCompute)
	defer c.span.end(phaseCompute)
	if misses == 1 {
		lone.Result, lone.Err = c.compute(lone.input)
		return
	}
	compute := c.compute
	sem := make(chan struct{}, min(misses, goruntime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for i := range c.items {
		it := &c.items[i]
		if !it.need {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() {
				if r := recover(); r != nil {
					it.Err = fmt.Errorf("dedup: compute panicked: %v", r)
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
				<-sem
				wg.Done()
			}()
			it.Result, it.Err = compute(it.input)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// sealComputed books every computed item and seals the fresh results
// for run to send. Degraded items are not uploaded; a failed
// computation is neither booked nor stored.
func (c *call) sealComputed() {
	rt := c.rt
	var jobs []putJob
	var computed, degraded int64
	for i := range c.items {
		it := &c.items[i]
		if !it.need {
			continue
		}
		if it.Err != nil {
			it.Result = nil
			continue
		}
		it.Outcome = OutcomeComputed
		if it.replace {
			it.Outcome = OutcomeRecomputed
		}
		computed++
		if it.degraded {
			degraded++
			continue
		}
		if jobs == nil {
			jobs = make([]putJob, 0, len(c.items)-i) // at most every remaining item
		}
		jobs = append(jobs, putJob{input: it.input, result: it.Result, tag: it.tag, replace: it.replace})
	}
	if computed > 0 {
		rt.mu.Lock()
		rt.stats.Computed += computed
		rt.stats.Degraded += degraded
		rt.mu.Unlock()
	}
	c.seal(jobs)
}

// share gives every joiner a private copy of the result of the flight
// it joined. This call's own leaders are all published by now, so only
// a flight led by a concurrent call is actually waited for.
func (c *call) share() {
	var coalesced, bytes int64
	waiting := false
	for i := range c.items {
		it := &c.items[i]
		if it.leads() {
			continue
		}
		if !waiting {
			waiting = true
			c.span.begin(phaseCoalesceWait)
		}
		<-it.joined.done
		if it.Err = it.joined.err; it.Err != nil {
			continue
		}
		it.Result, it.Outcome = append([]byte(nil), it.joined.result...), OutcomeCoalesced
		coalesced++
		bytes += int64(len(it.Result))
	}
	if !waiting {
		return
	}
	c.span.end(phaseCoalesceWait)
	c.rt.mu.Lock()
	c.rt.stats.Coalesced += coalesced
	c.rt.stats.BytesReused += bytes
	c.rt.mu.Unlock()
}
