package dedup

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// Entry-point conformance: every way into the execute pipeline —
// Execute, ExecuteBatch of one, ExecuteBatch of three with the scenario
// item in the middle — must serve each scenario with the same result
// bytes, outcome, Stats delta, store request counts and enclave
// crossings. Single and batch calls are one pipeline; this table is
// what keeps them one.

// countingClient counts the runtime's store requests and injects
// faults into them. The hooks see the 1-based index of the request
// among those of its kind.
type countingClient struct {
	StoreClient
	gets, puts atomic.Int64
	getErr     func(call int64) error
	getMutate  func(call int64, res []wire.GetResult)
	rejectPuts bool          // every PUT item is refused, as by a quota
	putErr     error         // every PUT fails with this
	shortPuts  bool          // every PUT is answered with no results
	delay      time.Duration // added to every Get
	down       atomic.Bool   // the client reports the store unhealthy
}

func (c *countingClient) Get(tc wire.TraceContext, tags []mle.Tag) ([]wire.GetResult, error) {
	n := c.gets.Add(1)
	time.Sleep(c.delay)
	if c.getErr != nil {
		if err := c.getErr(n); err != nil {
			return nil, err
		}
	}
	res, err := c.StoreClient.Get(tc, tags)
	if err == nil && c.getMutate != nil {
		c.getMutate(n, res)
	}
	return res, err
}

func (c *countingClient) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	c.puts.Add(1)
	switch {
	case c.putErr != nil:
		return nil, c.putErr
	case c.shortPuts:
		return nil, nil
	case c.rejectPuts:
		res := make([]wire.PutResult, len(items))
		for i := range res {
			res[i].Err = "injected: quota exceeded"
		}
		return res, nil
	}
	return c.StoreClient.Put(tc, items)
}

func (c *countingClient) Healthy() bool {
	return !c.down.Load() && c.StoreClient.Healthy()
}

var errStoreDown = errors.New("injected: store down")

// logSink collects the runtime's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// pipeEnv is one scenario instance: a store, a seeder application that
// arranges the store's state through an uncounted client, and the
// runtime under test behind a countingClient.
type pipeEnv struct {
	t      *testing.T
	store  *store.Store
	seeder *Runtime
	appEnc *enclave.Enclave
	client *countingClient
	rt     *Runtime
	id     mle.FuncID
	logs   *logSink
}

func newPipeEnv(t *testing.T, mutate func(*Config)) *pipeEnv {
	t.Helper()
	p := enclave.NewPlatform(enclave.Config{})
	create := func(name string) *enclave.Enclave {
		e, err := p.Create(name, []byte(name+" code"))
		if err != nil {
			t.Fatalf("create %s enclave: %v", name, err)
		}
		return e
	}
	st, err := store.New(store.Config{Enclave: create("store")})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	env := &pipeEnv{t: t, store: st, appEnc: create("app"), logs: &logSink{}}
	build := func(enc *enclave.Enclave, client StoreClient) *Runtime {
		cfg := Config{Enclave: enc, Client: client, Logf: env.logs.logf}
		if mutate != nil {
			mutate(&cfg)
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		rt.Registry().RegisterLibrary("zlib", "1.2.11", []byte("zlib code"))
		return rt
	}
	seedEnc := create("seeder")
	env.seeder = build(seedEnc, NewLocalClient(st, seedEnc.Measurement()))
	env.client = &countingClient{StoreClient: NewLocalClient(st, env.appEnc.Measurement())}
	env.rt = build(env.appEnc, env.client)
	if env.id, err = env.rt.Resolve(deflateDesc); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return env
}

// seed stores compute's result for input through the seeder app (a
// different enclave: cross-application reuse makes it a hit for the
// runtime under test).
func (env *pipeEnv) seed(input []byte, compute func([]byte) ([]byte, error)) {
	env.t.Helper()
	if _, out, err := env.seeder.Execute(env.id, input, compute); err != nil || out != OutcomeComputed {
		env.t.Fatalf("seed %q = (%v, %v), want computed", input, out, err)
	}
}

// poison installs a validly formatted entry sealed for a different
// computation under input's tag: the adversary controls the store
// machine's software stack.
func (env *pipeEnv) poison(input []byte) {
	env.t.Helper()
	var evilID mle.FuncID
	evilID[0] = 0xEE
	evil, err := (&mle.RCE{}).Encrypt(evilID, []byte("evil input"), []byte("evil result"))
	if err != nil {
		env.t.Fatalf("evil Encrypt: %v", err)
	}
	if _, err := env.store.Put(env.appEnc.Measurement(), mle.ComputeTag(env.id, input), evil); err != nil {
		env.t.Fatalf("poison Put: %v", err)
	}
}

// inFlight registers, for each input, a finished flight carrying its
// pipeCompute result, as a concurrent leader's flight looks to a call
// that joins it just before it publishes: the call shares the result
// without consulting the store.
func (env *pipeEnv) inFlight(inputs ...[]byte) {
	env.rt.flightMu.Lock()
	defer env.rt.flightMu.Unlock()
	for _, in := range inputs {
		res, _ := pipeCompute(in)
		f := &flight{done: make(chan struct{}), result: res}
		close(f.done)
		env.rt.inflight[mle.ComputeTag(env.id, in)] = f
	}
}

// lookup returns what a clean application reuses for input, if the
// store holds a valid entry for it.
func (env *pipeEnv) lookup(input []byte) ([]byte, bool) {
	res, out, err := env.seeder.Execute(env.id, input, func([]byte) ([]byte, error) {
		return nil, errors.New("not stored")
	})
	return res, err == nil && out == OutcomeReused
}

// recordManifest puts the store's entry for pipeInput, changed by
// mutate when it is non-nil, in the host record of the runtime under
// test, as if that runtime had last seen it so.
func (env *pipeEnv) recordManifest(mutate func(*mle.Sealed)) {
	env.t.Helper()
	tag := mle.ComputeTag(env.id, pipeInput)
	sealed, found, err := getOne(NewLocalClient(env.store, env.appEnc.Measurement()), tag)
	if err != nil || !found {
		env.t.Fatalf("read the manifest: found %v, err %v", found, err)
	}
	sealed = sealed.Clone()
	if mutate != nil {
		mutate(&sealed)
	}
	env.rt.record.put(tag, sealed)
}

// spillChunks seals every chunk of pipeInput's pipeBig result into the
// host tier of the runtime under test, as its enclave tier does with
// the chunks it evicts.
func (env *pipeEnv) spillChunks() {
	want, _ := pipeBig(pipeInput)
	for _, ch := range env.rt.chunker.Split(want) {
		sealInHostTier(env.t, env.rt, env.id, ch)
	}
}

// recordHealed checks that the runtime under test recorded the store's
// entry for pipeInput, as it now is.
func recordHealed(env *pipeEnv, _ []byte) {
	env.t.Helper()
	tag := mle.ComputeTag(env.id, pipeInput)
	stored, _, err := getOne(NewLocalClient(env.store, env.appEnc.Measurement()), tag)
	if got, ok := env.rt.record.get(tag); err != nil || !ok || !reflect.DeepEqual(got, stored.Clone()) {
		env.t.Error("the record does not hold the store's entry after the hit")
	}
}

// storeDown has the client report the store unhealthy, as its
// transport does after a failure its re-dial did not cure.
func (env *pipeEnv) storeDown() {
	env.t.Helper()
	env.client.down.Store(true)
	if !env.rt.Degraded() {
		env.t.Fatal("an unhealthy client left the runtime undegraded")
	}
}

var (
	pipeInput   = []byte("scenario input")
	pipeFillers = [][]byte{[]byte("filler one"), []byte("filler two")}
	errCompute  = errors.New("deterministic compute failure")
)

func pipeCompute(in []byte) ([]byte, error) { return append([]byte("result of "), in...), nil }

// pipeBig is a result large enough to be chunked at chunkTestThreshold.
func pipeBig(in []byte) ([]byte, error) {
	return append(chunkResult(int64(len(in)), 96<<10), in...), nil
}

// pipeScenario is one row of the table. Expectations are for the
// scenario item alone; filler says what each of ExecuteBatch-of-three's
// two extra items adds on top.
type pipeScenario struct {
	name string
	cfg  func(*Config)
	// arrange prepares the store and the faults for the scenario input.
	// The fillers are already seeded as plain hits when it runs.
	arrange func(env *pipeEnv)
	// compute is the scenario input's function (default pipeCompute);
	// stored means the call must be served without running it.
	compute func([]byte) ([]byte, error)
	stored  bool

	outcome Outcome
	errIs   error // the call fails with this
	stats   Stats
	filler  Stats // per filler; zero means a plain hit
	// fetches means the call fetched every chunk of its result from the
	// store, whether or not reassembly then succeeded: the runtime's
	// chunk cache starts empty. prefetched means they rode the lookup's
	// GET; otherwise they took a second GET, a prediction miss. spilled
	// means the host tier served every chunk instead.
	fetches, prefetched, spilled bool
	// Store requests and enclave OCALLs the whole call makes, however
	// many items it carries.
	gets, puts, ocalls int64
	// transitions is what the benchmark's transitions_per_call counts
	// for the call alone: its application ECALLs and OCALLs plus the
	// store enclave's entries. absentGet marks a lookup the store
	// answers without entering its enclave; ExecuteBatch_3's filler
	// hits ride in that GET message and make it enter once more.
	transitions int64
	absentGet   bool
	// verify checks the aftermath (store healed, flights released, ...).
	verify func(env *pipeEnv, want []byte)
}

func withChunking(cfg *Config) { cfg.ChunkThreshold = chunkTestThreshold }
func degradedFiller() Stats    { return Stats{Computed: 1, Degraded: 1} }
func failAllGets(env *pipeEnv) { env.client.getErr = func(int64) error { return errStoreDown } }
func stored(env *pipeEnv, want []byte) {
	env.t.Helper()
	if got, ok := env.lookup(pipeInput); !ok || !bytes.Equal(got, want) {
		env.t.Error("the store holds no valid entry for the scenario input afterwards")
	}
}
func notStored(env *pipeEnv, _ []byte) {
	env.t.Helper()
	if _, ok := env.lookup(pipeInput); ok {
		env.t.Error("the scenario input was stored; want no upload")
	}
}

var pipeScenarios = []pipeScenario{
	{
		// ECALL, GET OCALL, the store's PUT entry: the PUT leaves after
		// the ECALL, and the store rules the absent tag out unentered.
		name:    "miss",
		outcome: OutcomeComputed,
		stats:   Stats{Computed: 1},
		gets:    1, puts: 1, ocalls: 1,
		transitions: 3, absentGet: true,
		verify: stored,
	},
	{
		// ECALL, GET OCALL, the store's GET entry.
		name:    "hit",
		arrange: func(env *pipeEnv) { env.seed(pipeInput, pipeCompute) },
		stored:  true,
		outcome: OutcomeReused,
		stats:   Stats{Reused: 1},
		gets:    1, ocalls: 1,
		transitions: 3,
	},
	{
		// Joining a concurrent leader's flight crosses nothing but the
		// ECALL, whichever entry point joins it.
		name:        "coalesced",
		arrange:     func(env *pipeEnv) { env.inFlight(pipeInput, pipeFillers[0], pipeFillers[1]) },
		stored:      true,
		outcome:     OutcomeCoalesced,
		stats:       Stats{Coalesced: 1},
		filler:      Stats{Coalesced: 1, BytesReused: int64(len("result of " + string(pipeFillers[0])))},
		transitions: 1,
		verify:      notStored,
	},
	{
		name:    "poisoned_entry_recomputed_and_replaced",
		arrange: func(env *pipeEnv) { env.poison(pipeInput) },
		outcome: OutcomeRecomputed,
		stats:   Stats{Computed: 1, VerifyFailures: 1},
		gets:    1, puts: 1, ocalls: 1,
		transitions: 4,
		verify:      stored,
	},
	{
		name:    "get_error_degrades",
		arrange: failAllGets,
		outcome: OutcomeComputed,
		stats:   Stats{Computed: 1, Degraded: 1, StoreFailures: 1},
		filler:  degradedFiller(),
		gets:    1, ocalls: 1,
		transitions: 2,
		verify:      notStored,
	},
	{
		// The client reports the store down: no call consults it.
		name:        "breaker_open",
		arrange:     (*pipeEnv).storeDown,
		outcome:     OutcomeComputed,
		stats:       Stats{Computed: 1, Degraded: 1},
		filler:      degradedFiller(),
		transitions: 1,
	},
	{
		name:    "compute_error",
		compute: func([]byte) ([]byte, error) { return nil, errCompute },
		errIs:   errCompute,
		gets:    1, ocalls: 1,
		transitions: 2, absentGet: true,
		verify: func(env *pipeEnv, _ []byte) {
			if n := env.rt.inflightCount(); n != 0 {
				env.t.Errorf("%d flights left registered after a failed computation", n)
			}
			notStored(env, nil)
		},
	},
	{
		name:    "put_rejected",
		arrange: func(env *pipeEnv) { env.client.rejectPuts = true },
		outcome: OutcomeComputed,
		stats:   Stats{Computed: 1, PutErrors: 1},
		gets:    1, puts: 1, ocalls: 1,
		transitions: 2, absentGet: true,
		verify: notStored,
	},
	{
		// A PUT that fails in transport is a store failure too.
		name:    "put_error",
		arrange: func(env *pipeEnv) { env.client.putErr = errStoreDown },
		outcome: OutcomeComputed,
		stats:   Stats{Computed: 1, PutErrors: 1, StoreFailures: 1},
		gets:    1, puts: 1, ocalls: 1,
		transitions: 2, absentGet: true,
		verify: notStored,
	},
	{
		// A PUT answered with the wrong number of results breaks the
		// client's positional contract: a store failure, as on the GET
		// side.
		name:    "put_short_answer",
		arrange: func(env *pipeEnv) { env.client.shortPuts = true },
		outcome: OutcomeComputed,
		stats:   Stats{Computed: 1, PutErrors: 1, StoreFailures: 1},
		gets:    1, puts: 1, ocalls: 1,
		transitions: 2, absentGet: true,
		verify: notStored,
	},
	{
		name:    "chunked_miss",
		cfg:     withChunking,
		compute: pipeBig,
		outcome: OutcomeComputed,
		stats:   Stats{Computed: 1, ChunkedPuts: 1},
		// The GET OCALL, not entering the store; chunks, then manifest,
		// sent after the ECALL, one store entry each.
		gets: 1, puts: 2, ocalls: 1,
		transitions: 4, absentGet: true,
		verify: stored,
	},
	{
		// The chunk PUT's short answer stops the upload before the
		// manifest: counted like a whole result's.
		name:    "chunked_put_short_answer",
		cfg:     withChunking,
		arrange: func(env *pipeEnv) { env.client.shortPuts = true },
		compute: pipeBig,
		outcome: OutcomeComputed,
		stats:   Stats{Computed: 1, PutErrors: 1, StoreFailures: 1},
		gets:    1, puts: 1, ocalls: 1,
		transitions: 2, absentGet: true,
		verify: notStored,
	},
	{
		name:    "chunked_hit",
		cfg:     withChunking,
		arrange: func(env *pipeEnv) { env.seed(pipeInput, pipeBig) },
		compute: pipeBig,
		stored:  true,
		outcome: OutcomeReused,
		stats:   Stats{Reused: 1, ManifestReuses: 1},
		fetches: true,
		// The lookup, then one fetch of the manifest's chunks.
		gets: 2, ocalls: 2,
		transitions: 5,
	},
	{
		// The runtime recorded the manifest when it last saw it, and its
		// chunk cache is empty: every chunk rides the lookup's GET.
		name:    "chunked_repeat_hit",
		cfg:     withChunking,
		arrange: func(env *pipeEnv) { env.seed(pipeInput, pipeBig); env.recordManifest(nil) },
		compute: pipeBig,
		stored:  true,
		outcome: OutcomeReused,
		stats:   Stats{Reused: 1, ManifestReuses: 1},
		fetches: true, prefetched: true,
		gets: 1, ocalls: 1,
		transitions: 3,
	},
	{
		// Every chunk sits sealed in the host tier: the record names
		// them all as held, so the lookup's GET carries the manifest
		// alone and nothing is fetched.
		name:    "chunked_hit_from_host_tier",
		cfg:     withChunking,
		arrange: func(env *pipeEnv) { env.seed(pipeInput, pipeBig); env.recordManifest(nil); env.spillChunks() },
		compute: pipeBig,
		stored:  true,
		outcome: OutcomeReused,
		stats:   Stats{Reused: 1, ManifestReuses: 1},
		spilled: true,
		gets:    1, ocalls: 1,
		transitions: 3,
	},
	{
		// A record that does not open is ignored: the hit fetches its
		// chunks after the manifest, as a first hit does, and records the
		// store's entry afresh.
		name: "chunked_prediction_miss",
		cfg:  withChunking,
		arrange: func(env *pipeEnv) {
			env.seed(pipeInput, pipeBig)
			env.recordManifest(func(s *mle.Sealed) { s.Blob[len(s.Blob)/2] ^= 1 })
		},
		compute: pipeBig,
		stored:  true,
		outcome: OutcomeReused,
		stats:   Stats{Reused: 1, ManifestReuses: 1},
		fetches: true,
		gets:    2, ocalls: 2,
		transitions: 5,
		verify:      recordHealed,
	},
	{
		name: "chunk_missing_recomputes_loudly",
		cfg:  withChunking,
		arrange: func(env *pipeEnv) {
			env.seed(pipeInput, pipeBig)
			env.client.getMutate = func(call int64, res []wire.GetResult) {
				if call == 2 {
					res[len(res)/2] = wire.GetResult{}
				}
			}
		},
		compute: pipeBig,
		outcome: OutcomeRecomputed,
		stats:   Stats{Computed: 1, VerifyFailures: 1, ChunkedPuts: 1},
		fetches: true,
		// Replace skips the chunk cache and re-uploads every chunk. The
		// store settles each Replace item alone, so the chunk PUT
		// message enters it once per chunk: 11 here.
		gets: 2, puts: 2, ocalls: 2,
		transitions: 17,
		verify: func(env *pipeEnv, want []byte) {
			if !env.logs.contains("chunked reassembly") {
				env.t.Error("the reassembly failure was not logged")
			}
			stored(env, want)
		},
	},
	{
		// A store outage in the middle of a reassembly says nothing about
		// the stored data: it is a failed GET, not a poisoned entry.
		name: "chunk_fetch_outage_degrades",
		cfg:  withChunking,
		arrange: func(env *pipeEnv) {
			env.seed(pipeInput, pipeBig)
			env.client.getErr = func(call int64) error {
				if call == 2 {
					return errStoreDown
				}
				return nil
			}
		},
		compute: pipeBig,
		outcome: OutcomeComputed,
		stats:   Stats{Computed: 1, Degraded: 1, StoreFailures: 1},
		gets:    2, ocalls: 2,
		transitions: 4,
	},
}

// pipeEntry is one way into the pipeline. call runs the scenario input
// (with fillers around it, for the batch of three) and returns the
// scenario item's result plus the fillers' results.
type pipeEntry struct {
	name    string
	fillers int
	call    func(rt *Runtime, id mle.FuncID, compute func([]byte) ([]byte, error)) (BatchResult, []BatchResult, error)
}

func single(res []byte, out Outcome, err error) (BatchResult, []BatchResult, error) {
	return BatchResult{Result: res, Outcome: out, Err: err}, nil, nil
}

var pipeEntries = []pipeEntry{
	{name: "Execute", call: func(rt *Runtime, id mle.FuncID, compute func([]byte) ([]byte, error)) (BatchResult, []BatchResult, error) {
		return single(rt.Execute(id, pipeInput, compute))
	}},
	{name: "ExecuteBatch_1", call: func(rt *Runtime, id mle.FuncID, compute func([]byte) ([]byte, error)) (BatchResult, []BatchResult, error) {
		res, err := rt.ExecuteBatch(id, [][]byte{pipeInput}, compute)
		if err != nil {
			return BatchResult{}, nil, err
		}
		return res[0], nil, nil
	}},
	{name: "ExecuteBatch_3", fillers: 2, call: func(rt *Runtime, id mle.FuncID, compute func([]byte) ([]byte, error)) (BatchResult, []BatchResult, error) {
		res, err := rt.ExecuteBatch(id, [][]byte{pipeFillers[0], pipeInput, pipeFillers[1]}, compute)
		if err != nil {
			return BatchResult{}, nil, err
		}
		return res[1], []BatchResult{res[0], res[2]}, nil
	}},
}

func TestPipelineConformance(t *testing.T) {
	for _, sc := range pipeScenarios {
		for _, entry := range pipeEntries {
			t.Run(sc.name+"/"+entry.name, func(t *testing.T) { runPipeScenario(t, sc, entry) })
		}
	}
}

func runPipeScenario(t *testing.T, sc pipeScenario, entry pipeEntry) {
	env := newPipeEnv(t, sc.cfg)
	for _, f := range pipeFillers {
		env.seed(f, pipeCompute)
	}
	if sc.arrange != nil {
		sc.arrange(env)
	}
	scCompute := sc.compute
	if scCompute == nil {
		scCompute = pipeCompute
	}
	compute := func(in []byte) ([]byte, error) {
		if !bytes.Equal(in, pipeInput) {
			return pipeCompute(in)
		}
		if sc.stored {
			t.Error("computed a stored result")
		}
		return scCompute(in)
	}
	want, _ := scCompute(pipeInput)

	statsBefore, encBefore, storeBefore := env.rt.Stats(), env.appEnc.Metrics(), env.store.Enclave().Metrics()
	getsBefore, putsBefore := env.client.gets.Load(), env.client.puts.Load()
	got, fillers, err := entry.call(env.rt, env.id, compute)
	if err != nil {
		t.Fatalf("top-level error: %v", err)
	}

	// The scenario item.
	switch {
	case sc.errIs != nil:
		if !errors.Is(got.Err, sc.errIs) {
			t.Errorf("err = %v, want %v", got.Err, sc.errIs)
		}
		if got.Result != nil || got.Outcome != 0 {
			t.Errorf("failed item carries result %q outcome %v", got.Result, got.Outcome)
		}
	case got.Err != nil:
		t.Errorf("err = %v, want %v", got.Err, sc.outcome)
	case got.Outcome != sc.outcome || !bytes.Equal(got.Result, want):
		t.Errorf("= (%d bytes, %v), want (%d bytes, %v)", len(got.Result), got.Outcome, len(want), sc.outcome)
	}

	// The fillers ride along undisturbed: hits, unless the scenario
	// takes the store away from the whole call.
	filler := sc.filler
	if filler == (Stats{}) {
		filler = Stats{Reused: 1, BytesReused: int64(len("result of " + string(pipeFillers[0])))}
	}
	for i, f := range fillers {
		if wantRes, _ := pipeCompute(pipeFillers[i]); f.Err != nil || !bytes.Equal(f.Result, wantRes) {
			t.Errorf("filler %d = (%q, %v), want %q", i, f.Result, f.Err, wantRes)
		}
	}

	// Stats: the scenario item's delta plus each filler's.
	wantStats := sc.stats
	wantStats.Calls = 1
	if sc.outcome == OutcomeReused || sc.outcome == OutcomeCoalesced {
		wantStats.BytesReused = int64(len(want))
	}
	n := int64(entry.fillers)
	filler.Calls = 1
	wantStats = addStats(wantStats, filler, n)
	if sc.spilled { // a chunk the host tier serves is a chunk cache hit too
		wantStats.ChunkSpillHits = int64(len(env.rt.chunker.Split(want)))
		wantStats.ChunkCacheHits = wantStats.ChunkSpillHits
	}
	if sc.fetches {
		n := int64(len(env.rt.chunker.Split(want)))
		wantStats.ChunksFetched = n
		if sc.prefetched {
			wantStats.ChunksPrefetched = n
		} else {
			wantStats.PrefetchMisses = 1
		}
	}
	if delta := subStats(env.rt.Stats(), statsBefore); delta != wantStats {
		t.Errorf("Stats delta = %+v\nwant          %+v", delta, wantStats)
	}

	// Store requests and enclave crossings do not depend on the entry
	// point or on how many items ride in the call.
	if g, p := env.client.gets.Load()-getsBefore, env.client.puts.Load()-putsBefore; g != sc.gets || p != sc.puts {
		t.Errorf("store requests GET/PUT = %d/%d, want %d/%d", g, p, sc.gets, sc.puts)
	}
	enc := env.appEnc.Metrics()
	e, o := enc.ECalls-encBefore.ECalls, enc.OCalls-encBefore.OCalls
	if e != 1 || o != sc.ocalls {
		t.Errorf("ECALLs/OCALLs = %d/%d, want 1/%d", e, o, sc.ocalls)
	}
	wantTransitions := sc.transitions
	if sc.absentGet && entry.fillers > 0 {
		wantTransitions++
	}
	if got := e + o + env.store.Enclave().Metrics().ECalls - storeBefore.ECalls; got != wantTransitions {
		t.Errorf("transitions = %d, want %d", got, wantTransitions)
	}

	if sc.verify != nil {
		sc.verify(env, want) // last: its own lookups cross too
	}
}

// addStats adds n fillers' worth of b to a; a filler is a hit, a
// coalesced call, a degraded computation or a failed call, so only
// those fields move.
func addStats(a, b Stats, n int64) Stats {
	a.Calls += n * b.Calls
	a.Reused += n * b.Reused
	a.Computed += n * b.Computed
	a.Coalesced += n * b.Coalesced
	a.BytesReused += n * b.BytesReused
	a.Degraded += n * b.Degraded
	return a
}

func subStats(a, b Stats) Stats {
	return Stats{
		Calls: a.Calls - b.Calls, Reused: a.Reused - b.Reused, Computed: a.Computed - b.Computed,
		Coalesced: a.Coalesced - b.Coalesced, VerifyFailures: a.VerifyFailures - b.VerifyFailures,
		PutErrors: a.PutErrors - b.PutErrors, BytesReused: a.BytesReused - b.BytesReused,
		Degraded: a.Degraded - b.Degraded, StoreFailures: a.StoreFailures - b.StoreFailures,
		Retries: a.Retries - b.Retries, ChunkedPuts: a.ChunkedPuts - b.ChunkedPuts,
		ManifestReuses: a.ManifestReuses - b.ManifestReuses, ChunksFetched: a.ChunksFetched - b.ChunksFetched,
		ChunkCacheHits: a.ChunkCacheHits - b.ChunkCacheHits, ChunksSkipped: a.ChunksSkipped - b.ChunksSkipped,
		ChunksPrefetched: a.ChunksPrefetched - b.ChunksPrefetched, PrefetchMisses: a.PrefetchMisses - b.PrefetchMisses,
		ChunkSpillHits: a.ChunkSpillHits - b.ChunkSpillHits, ChunkSpillFailures: a.ChunkSpillFailures - b.ChunkSpillFailures,
	}
}

// TestChunkFetchTimedAsStoreGet: on a chunked hit the chunk fetch is
// store time. store_get covers the lookup and the fetch, verify_decrypt
// only decryption and chunk verification — identically for a single
// call and a batch.
func TestChunkFetchTimedAsStoreGet(t *testing.T) {
	const delay = 30 * time.Millisecond
	for _, entry := range pipeEntries[:2] {
		t.Run(entry.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			env := newPipeEnv(t, func(cfg *Config) {
				withChunking(cfg)
				if cfg.Enclave.Name() == "app" {
					cfg.Telemetry = reg
				}
			})
			env.seed(pipeInput, pipeBig)
			env.client.delay = delay
			got, _, err := entry.call(env.rt, env.id, pipeBig)
			if err != nil || got.Err != nil || got.Outcome != OutcomeReused {
				t.Fatalf("chunked hit = (%v, %v, %v)", got.Outcome, got.Err, err)
			}
			phase := func(name string) time.Duration {
				for _, h := range reg.Snapshot().HistogramsByFamily("speed_execute_phase_seconds") {
					if strings.Contains(h.Name, `phase="`+name+`"`) {
						if h.Count != 1 {
							t.Errorf("phase %s observed %d times, want 1", name, h.Count)
						}
						return time.Duration(h.SumSeconds * float64(time.Second))
					}
				}
				t.Fatalf("phase %s not recorded", name)
				return 0
			}
			// Two delayed GETs: the lookup and the chunk fetch.
			if got := phase("store_get"); got < 2*delay {
				t.Errorf("store_get = %v, want >= %v (lookup + chunk fetch)", got, 2*delay)
			}
			if got := phase("verify_decrypt"); got >= delay {
				t.Errorf("verify_decrypt = %v, want < %v: it must not include the chunk fetch", got, delay)
			}
		})
	}
}

// TestExecuteHitAllocBound gates the single-call hit path at the
// allocation count Execute had when it was a hand-written copy of the
// algorithm (23 allocs/op, BenchmarkExecuteHitRaw -benchmem at commit
// 1c46c0e) less the copy publish no longer makes for a flight nobody
// joined, so running it through the shared pipeline cannot quietly put
// a map, a goroutine or a second per-item slice on the hit path.
func TestExecuteHitAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate")
	}
	rt := benchEnv(t, nil, false)
	id, err := rt.Resolve(deflateDesc)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("benchmark input")
	fn := func(in []byte) ([]byte, error) { return append([]byte("r:"), in...), nil }
	hit := func() {
		if _, _, err := rt.Execute(id, input, fn); err != nil {
			t.Fatal(err)
		}
	}
	hit() // the miss that stores the result
	const bound = 22
	if n := testing.AllocsPerRun(200, hit); n > bound {
		t.Errorf("Execute hit allocates %v times per call, want <= %d", n, bound)
	}
}
