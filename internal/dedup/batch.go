package dedup

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"speed/internal/mle"
	"speed/internal/wire"
)

// BatchResult is one item's outcome from ExecuteBatch. Err is per-item:
// one failed lookup or computation does not poison its batch siblings.
type BatchResult struct {
	Result  []byte
	Outcome Outcome
	Err     error
}

// ExecuteBatch runs the marked computation over many inputs with
// deduplication, amortising the per-call overheads that dominate small
// computations: the batch enters the enclave once, consults the store
// with one batched GET (one OCALL, one wire round trip on a protocol-v2
// connection), computes the misses with bounded parallelism, and
// flushes the fresh results with one batched PUT. Results align with
// inputs positionally.
//
// Coalescing composes with batching: duplicate inputs within the batch
// are computed once and shared (OutcomeCoalesced), items whose tag is
// already in flight in this process join that flight, and the batch's
// own leaders are visible to concurrent Execute callers. A top-level
// error is returned only when the runtime is unusable (closed); store
// and compute failures land in the matching item's Err.
func (rt *Runtime) ExecuteBatch(id mle.FuncID, inputs [][]byte, compute func([]byte) ([]byte, error)) ([]BatchResult, error) {
	n := len(inputs)
	if n == 0 {
		return nil, nil
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, errors.New("dedup: runtime closed")
	}
	rt.stats.Calls += int64(n)
	rt.mu.Unlock()

	results := make([]BatchResult, n)
	var span *execSpan
	tc, rootSpan := rt.startTrace()
	if rt.tel != nil || rt.cfg.SlowRequestThreshold > 0 {
		span = &execSpan{start: time.Now()}
	}
	err := rt.cfg.Enclave.ECall(func() error {
		rt.executeBatchInEnclave(id, inputs, tc, compute, span, results)
		return nil
	})
	if span != nil {
		total := time.Since(span.start)
		if rt.tel != nil {
			rt.tel.observePhases(span)
			rt.tel.batchItems.Observe(time.Duration(n))
			rt.recordTrace("execute_batch", id, tc, rootSpan, span, 0, total, err)
		}
		rt.maybeSlowLog("execute_batch", id, tc, total, 0, err)
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// executeBatchInEnclave is the body of ExecuteBatch, running inside the
// application enclave's ECALL.
func (rt *Runtime) executeBatchInEnclave(id mle.FuncID, inputs [][]byte, tc wire.TraceContext, compute func([]byte) ([]byte, error), span *execSpan, results []BatchResult) {
	n := len(inputs)

	span.begin(phaseTag)
	tags := make([]mle.Tag, n)
	for i := range inputs {
		tags[i] = mle.ComputeTag(id, inputs[i])
	}
	span.end(phaseTag)

	// Partition the batch: the first item for each distinct tag is its
	// leader and owns the lookup/compute/upload; later identical items
	// are followers and share the leader's result. With coalescing on,
	// a tag already in flight elsewhere in the process makes its items
	// joiners of that flight, and each leader registers a flight of its
	// own for concurrent callers to join.
	leaderFor := make(map[mle.Tag]int, n)
	var leaders []int
	followers := make(map[int]int) // item -> its leader item
	joiners := make(map[int]*flight)
	pending := make(map[int]*flight) // leader item -> flight we registered
	coalesce := !rt.cfg.NoCoalesce
	if coalesce {
		rt.flightMu.Lock()
	}
	for i, tag := range tags {
		if li, ok := leaderFor[tag]; ok {
			followers[i] = li
			continue
		}
		if coalesce {
			if f, ok := rt.inflight[tag]; ok {
				joiners[i] = f
				continue
			}
			f := &flight{done: make(chan struct{})}
			rt.inflight[tag] = f
			pending[i] = f
		}
		leaderFor[tag] = i
		leaders = append(leaders, i)
	}
	if coalesce {
		rt.flightMu.Unlock()
	}

	// resolve publishes a leader's final result (or error) to its
	// registered flight and unregisters it. Idempotent per item.
	resolve := func(i int) {
		f, ok := pending[i]
		if !ok {
			return
		}
		delete(pending, i)
		if results[i].Err != nil {
			f.err = results[i].Err
		} else {
			f.result = append([]byte(nil), results[i].Result...)
			f.outcome = results[i].Outcome
		}
		rt.flightMu.Lock()
		delete(rt.inflight, tags[i])
		rt.flightMu.Unlock()
		close(f.done)
	}
	// Panic safety: however this function exits, no registered flight
	// may be left open or later identical calls would block forever.
	// The panic itself still propagates to the caller.
	defer func() {
		for i, f := range pending {
			f.err = fmt.Errorf("dedup: in-flight computation for tag %x... panicked", tags[i][:4])
			rt.flightMu.Lock()
			delete(rt.inflight, tags[i])
			rt.flightMu.Unlock()
			close(f.done)
		}
	}()

	// One batched GET for all leaders, unless the breaker is already
	// open (storeless: everything is computed, as in Execute's
	// degradation mode).
	storeless := rt.degradeEnabled() && rt.Degraded()
	var found []wire.GetResult
	if !storeless && len(leaders) > 0 {
		leaderTags := make([]mle.Tag, len(leaders))
		for j, i := range leaders {
			leaderTags[j] = tags[i]
		}
		span.begin(phaseStoreGet)
		gerr := rt.cfg.Enclave.OCall(func() error {
			var oerr error
			found, oerr = rt.clientGet(tc, leaderTags)
			return oerr
		})
		span.end(phaseStoreGet)
		switch {
		case gerr == nil:
			rt.noteStoreSuccess()
		case !rt.degradeEnabled():
			// Degradation disabled: the transport failure surfaces on
			// every leader (and through their flights), as Execute
			// surfaces it on its single call.
			for _, i := range leaders {
				results[i].Err = fmt.Errorf("query store: %w", gerr)
				resolve(i)
			}
			leaders = nil
		default:
			rt.noteStoreFailure(gerr)
			rt.cfg.Logf("speed: store batch get failed, serving compute-only: %v", gerr)
			storeless = true
			found = nil
		}
	}

	// Verify and decrypt the hits (Algorithm 2 + Fig. 3); collect the
	// misses and the poisoned entries for computation.
	needCompute := make([]int, 0, len(leaders))
	replace := make(map[int]bool)
	if found != nil {
		span.begin(phaseVerifyDecrypt)
		for j, i := range leaders {
			r := found[j]
			if !r.Found {
				needCompute = append(needCompute, i)
				continue
			}
			// The phase is timed around the whole loop, so verifyHit
			// gets no span of its own.
			res, ok, verr := rt.verifyHit(id, inputs[i], tags[i], tc, r.Sealed, nil)
			if verr != nil {
				results[i].Err = verr
				resolve(i)
				continue
			}
			if ok {
				results[i] = BatchResult{Result: res, Outcome: OutcomeReused}
				resolve(i)
				continue
			}
			// ⊥: poisoned or corrupted entry; recompute and replace it.
			replace[i] = true
			needCompute = append(needCompute, i)
		}
		span.end(phaseVerifyDecrypt)
	} else {
		needCompute = append(needCompute, leaders...)
	}

	// Compute the misses with bounded parallelism. The compute phase is
	// timed as one wall-clock section (execSpan is not
	// goroutine-safe, and the wall time is what the caller feels).
	if len(needCompute) > 0 {
		par := rt.cfg.BatchParallelism
		if par > len(needCompute) {
			par = len(needCompute)
		}
		span.begin(phaseCompute)
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		var panicMu sync.Mutex
		var panics []any
		for _, i := range needCompute {
			i := i
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						panics = append(panics, r)
						panicMu.Unlock()
						results[i].Err = fmt.Errorf("dedup: compute panicked: %v", r)
					}
					<-sem
					wg.Done()
				}()
				res, cerr := compute(inputs[i])
				if cerr != nil {
					results[i].Err = cerr
					return
				}
				results[i].Result = res
			}()
		}
		wg.Wait()
		span.end(phaseCompute)
		if len(panics) > 0 {
			// Re-raise on the caller's goroutine, as Execute lets a
			// compute panic propagate; the deferred cleanup above fails
			// the open flights first.
			panic(panics[0])
		}
	}

	// Serial post-compute bookkeeping, then one batched PUT flush for
	// everything freshly computed (or a hand-off to the async PUT
	// worker). Leaders keep their flights open until the upload attempt
	// finishes, mirroring Execute's synchronous-PUT semantics.
	computed := make([]int, 0, len(needCompute))
	for _, i := range needCompute {
		if results[i].Err != nil {
			resolve(i)
			continue
		}
		if storeless {
			results[i].Outcome = OutcomeComputed
			rt.mu.Lock()
			rt.stats.Computed++
			rt.stats.Degraded++
			rt.mu.Unlock()
			resolve(i)
			continue
		}
		if replace[i] {
			results[i].Outcome = OutcomeRecomputed
		} else {
			results[i].Outcome = OutcomeComputed
		}
		rt.mu.Lock()
		rt.stats.Computed++
		rt.mu.Unlock()
		computed = append(computed, i)
	}
	if len(computed) > 0 {
		if rt.cfg.AsyncPut {
			for _, i := range computed {
				rt.enqueuePut(putJob{id: id, input: inputs[i], result: results[i].Result, tag: tags[i], replace: replace[i], tc: tc})
				resolve(i)
			}
		} else {
			// Results at or above the chunk threshold go chunk-wise (the
			// same routing sealAndPut applies); chunkedPut manages its own
			// encrypt/put phases and OCALLs. The rest are sealed whole and
			// uploaded in one batch below.
			whole := computed
			if rt.chunker != nil {
				whole = make([]int, 0, len(computed))
				for _, i := range computed {
					if len(results[i].Result) >= rt.cfg.ChunkThreshold {
						cerr := rt.chunkedPut(id, inputs[i], results[i].Result, tags[i], replace[i], tc, span)
						if cerr == nil {
							continue
						}
						if !errors.Is(cerr, errTooManyChunks) {
							// A failed upload only loses future reuse; the
							// caller still gets its freshly computed result.
							rt.notePutError(cerr)
							continue
						}
						// Too many chunks for one manifest: store it whole.
					}
					whole = append(whole, i)
				}
			}
			span.begin(phaseEncrypt)
			items := make([]wire.PutItem, 0, len(whole))
			for _, i := range whole {
				sealed, eerr := rt.cfg.Scheme.Encrypt(id, inputs[i], results[i].Result)
				if eerr != nil {
					// A failed upload only loses future reuse; the
					// caller still gets its freshly computed result.
					rt.notePutError(fmt.Errorf("encrypt result: %w", eerr))
					resolve(i)
					continue
				}
				items = append(items, wire.PutItem{Tag: tags[i], Sealed: sealed, Replace: replace[i]})
			}
			span.end(phaseEncrypt)
			if len(items) > 0 {
				span.begin(phaseStorePut)
				var prs []wire.PutResult
				perr := rt.cfg.Enclave.OCall(func() error {
					var oerr error
					prs, oerr = rt.clientPut(tc, items)
					return oerr
				})
				span.end(phaseStorePut)
				if perr != nil {
					rt.notePutError(perr)
				} else {
					for _, pr := range prs {
						if !pr.OK {
							rt.notePutError(fmt.Errorf("%w: %s", ErrPutRejected, pr.Err))
						}
					}
				}
			}
			for _, i := range computed {
				resolve(i)
			}
		}
	}

	// Followers copy their leader's result.
	for i, li := range followers {
		if results[li].Err != nil {
			results[i].Err = results[li].Err
			continue
		}
		results[i] = BatchResult{
			Result:  append([]byte(nil), results[li].Result...),
			Outcome: OutcomeCoalesced,
		}
		rt.mu.Lock()
		rt.stats.Coalesced++
		rt.stats.BytesReused += int64(len(results[i].Result))
		rt.mu.Unlock()
	}

	// Joiners wait on flights owned by concurrent callers outside this
	// batch.
	if len(joiners) > 0 {
		span.begin(phaseCoalesceWait)
		for i, f := range joiners {
			<-f.done
			if f.err != nil {
				results[i].Err = f.err
				continue
			}
			results[i] = BatchResult{
				Result:  append([]byte(nil), f.result...),
				Outcome: OutcomeCoalesced,
			}
			rt.mu.Lock()
			rt.stats.Coalesced++
			rt.stats.BytesReused += int64(len(results[i].Result))
			rt.mu.Unlock()
		}
		span.end(phaseCoalesceWait)
	}
}
