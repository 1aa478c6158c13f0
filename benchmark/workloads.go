package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// refSeconds is the --seconds value the frozen op counts below are
// sized for: on the 2-vCPU reference box each measured window then
// lasts a little over refSeconds. Other --seconds values scale every
// op count linearly, so a run always measures a fixed, seeded amount of
// work rather than whatever fits into a wall-clock window.
const refSeconds = 20

// traceDivisor is how much shorter each pass of the traced run is than
// the untraced window: a traced run makes five or six passes (one per
// ladder rung) and must stay shorter than the untraced run.
const traceDivisor = 8

// inputLen is the size of every marked-computation input. The layout is
// [result size u32][id u32][24 seeded bytes], so the compute function
// needs nothing but its input.
const inputLen = 32

const (
	kib = 1 << 10
	mib = 1 << 20
)

// workload is one frozen benchmark workload: a deployment shape plus a
// load shape. Every number here is part of the benchmark's contract.
type workload struct {
	name string
	why  string

	// Deployment.
	nodes     int  // store servers
	logEngine bool // log engine instead of memory
	// fsync is the log engine's WAL durability policy.
	fsync          string
	cluster        bool // cluster.Client over the nodes instead of one RemoteClient
	chunkThreshold int  // dedup.Config.ChunkThreshold; 0 = chunking off
	// compactInterval is the log engine's CompactInterval; 0 keeps the
	// engine's default (30 s), negative turns the timer off.
	compactInterval time.Duration
	// compactEachSlice makes the load generator itself call
	// Store.Compact at the end of each of the window's ten slices.
	compactEachSlice bool

	// Load.
	calls       int     // measured calls at --seconds refSeconds
	pool        int     // inputs stored before the window opens
	warmup      int     // warm-up calls before the window opens
	rate        float64 // open loop: requests per second; 0 = closed loop
	dispatchers int     // goroutines issuing requests
	// crashRecover ends the run with Store.Crash, a reopen and a
	// read-back of every crashStride-th acknowledged result.
	crashRecover bool
	// missTypical says the typical (median) call computes rather than
	// reuses, which decides the budget's base row.
	missTypical bool

	gen func(w *workload, seed uint64, sz sizing) *stream
}

// sizing scales a workload's frozen counts: ops multiplies the call and
// warm-up counts, pool the pre-populated working set (shrunk only for
// smoke-sized runs). The traced run divides ops by traceDivisor and
// keeps pool.
type sizing struct{ ops, pool float64 }

func sizingFor(seconds float64, traced bool) sizing {
	sz := sizing{ops: seconds / refSeconds, pool: seconds / refSeconds}
	if traced {
		sz.ops /= traceDivisor
	}
	return sz
}

// The four workloads. Op counts were sized once on the reference box
// (see README.md "Sizing") and are frozen; a slower build must not be
// given less work.
var workloads = []*workload{
	{
		name:        "hit_small",
		why:         "100% reuse of 4 KiB results, one client, memory engine: the paper's subsequent computation; enclave transitions, wire, server hand-offs and RCE open do all the work",
		nodes:       1,
		calls:       300000,
		pool:        16384,
		warmup:      2000,
		dispatchers: 1,
		gen:         genHitSmall,
	},
	{
		name:      "miss_durable",
		why:       "0% reuse, every 4 KiB result sealed and PUT through the log engine's WAL, memtable flushes and ten compactions, then crash and read-back: the paper's initial computation plus the log-engine write path",
		nodes:     1,
		logEngine: true,
		// Compaction is what the log engine's write path costs beyond
		// the WAL, so the window must hold several cycles. A timer would
		// put a machine-speed-dependent number of them inside a
		// fixed-count window (and the default 30 s timer none or one,
		// README.md "Findings"); the load generator triggers them at
		// fixed call counts instead, through the same Store.Compact an
		// operator would use, one per slice so that every slice holds
		// the same kinds of work.
		compactInterval:  -1,
		compactEachSlice: true,
		// Not "commit": an fsync on the reference box's shared virtual
		// disk costs 270 µs at the median and seconds at the tail, which
		// made two thirds of this workload's latency and nearly all of
		// its run-to-run spread (28% on calls_per_s) the disk's, not the
		// program's. Segment flushes, compactions and the manifest still
		// fsync; fsync=commit stays in the benchmark through
		// cluster_mix (README.md "Deviations").
		fsync:        "none",
		calls:        52000,
		warmup:       1500,
		dispatchers:  1,
		missTypical:  true,
		crashRecover: true,
		gen:          genMissDurable,
	},
	{
		name:           "overlap_chunked",
		why:            "256 KiB results sharing ~90% of their bytes within 64 families, chunked dedup on, working set larger than the chunk cache: chunking, per-chunk RCE and batch wire frames do the work",
		nodes:          1,
		chunkThreshold: 32 * kib,
		calls:          23000,
		warmup:         64,
		dispatchers:    1,
		gen:            genOverlapChunked,
	},
	{
		name:      "cluster_mix",
		why:       "open-loop Poisson arrivals over a 2-node replicated cluster on the log engine with fsync=commit, 70/30 hit/miss, single and batch calls, 1-64 KiB results: routing, replication, queueing under bursts",
		nodes:     2,
		logEngine: true,
		// Compaction merges every segment under the engine lock, which
		// under open-loop load turns each cycle into a stall of several
		// hundred ms on both nodes and p99 into the length of that
		// stall. The default interval never fires inside the window, so
		// cluster_mix measures routing, replication and queueing;
		// miss_durable measures compaction (README.md "Findings").
		compactInterval: 0,
		fsync:           "commit",
		cluster:         true,
		calls:           18750,
		pool:            3072,
		warmup:          600,
		rate:            clusterMixRate,
		dispatchers:     2,
		gen:             genClusterMix,
	},
}

// clusterMixRate is cluster_mix's request rate in requests per second
// (a batch of 8 is one request). Calibrated once, see README.md
// "cluster_mix rate calibration"; never derived at run time.
const clusterMixRate = 500

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// request is one call into the runtime: Execute when n == 1, otherwise
// ExecuteBatch over n inputs. It covers segment.ids[first:first+n].
type request struct {
	first, n int32
	// due is when an open-loop request is scheduled, in nanoseconds
	// from the start of the window; 0 in closed-loop streams.
	due int64
}

// segment is a run of requests with the outcome each call must have.
type segment struct {
	ids  []uint32
	reqs []request
	// hit[i] is true when ids[i] is already stored when the call is
	// issued (pre-populated, or touched earlier in the stream).
	hit []bool
}

func (s *segment) add(due int64, hit bool, ids ...uint32) {
	s.reqs = append(s.reqs, request{first: int32(len(s.ids)), n: int32(len(ids)), due: due})
	for _, id := range ids {
		s.ids = append(s.ids, id)
		s.hit = append(s.hit, hit)
	}
}

// stream is everything a run feeds the program, generated from the
// seed before any clock starts.
type stream struct {
	inputs [][]byte // by id
	prepop []uint32 // ids stored during set-up, in order
	warm   segment
	main   segment
	// compute is the marked computation: deterministic in its input
	// alone.
	compute func(input []byte) ([]byte, error)
	// distinctBytes is the plaintext size of one copy of every distinct
	// result the store holds when the window closes.
	distinctBytes int64
}

// scaled is n·scale, rounded, but at least floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(math.Round(float64(n)*scale)), floor)
}

// scaledPool shrinks a pre-populated pool only for smoke-sized runs; at
// or above the reference size the working set is part of the contract.
func scaledPool(n int, sz sizing) int {
	if sz.pool >= 1 {
		return n
	}
	return scaled(n, sz.pool, 64)
}

func newRand(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose))
}

// makeInputs builds n inputs whose result sizes come from sizeOf.
func makeInputs(name string, seed uint64, n int, sizeOf func(id uint32) int) [][]byte {
	backing := make([]byte, n*inputLen)
	inputs := make([][]byte, n)
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	h := sha256.New()
	var sum [32]byte
	for id := range inputs {
		in := backing[id*inputLen : (id+1)*inputLen : (id+1)*inputLen]
		binary.LittleEndian.PutUint32(in[0:], uint32(sizeOf(uint32(id))))
		binary.LittleEndian.PutUint32(in[4:], uint32(id))
		binary.LittleEndian.PutUint32(key[8:], uint32(id))
		h.Reset()
		h.Write(key[:12])
		h.Write([]byte(name))
		copy(in[8:], h.Sum(sum[:0]))
		inputs[id] = in
	}
	return inputs
}

func inputSize(input []byte) int  { return int(binary.LittleEndian.Uint32(input[0:])) }
func inputID(input []byte) uint32 { return binary.LittleEndian.Uint32(input[4:]) }

// fillStream writes the SHA-256 counter-mode stream keyed by key (up
// to 60 bytes) over out.
func fillStream(out, key []byte) {
	var blk [64]byte
	n := copy(blk[:60], key)
	for off, ctr := 0, uint32(0); off < len(out); off, ctr = off+32, ctr+1 {
		binary.LittleEndian.PutUint32(blk[n:], ctr)
		sum := sha256.Sum256(blk[:n+4])
		copy(out[off:], sum[:])
	}
}

// expand is the marked computation of hit_small, miss_durable and
// cluster_mix: the SHA-256 counter-mode stream keyed by the input, cut
// to the size the input names. Its cost is constant across commits and
// its output is checkable byte for byte.
func expand(input []byte) ([]byte, error) {
	if len(input) != inputLen {
		return nil, fmt.Errorf("expand: input of %d bytes", len(input))
	}
	out := make([]byte, inputSize(input))
	fillStream(out, input)
	return out, nil
}

// zipfCounts splits n draws over ranks 0..ranks-1 in Zipf(s)
// proportion, P(rank r) ∝ 1/(r+1)^s, by the largest-remainder rule, so
// the counts sum to n exactly. (math/rand's Zipf needs s > 1; two
// workloads use s ≤ 1.)
func zipfCounts(n, ranks int, s float64) []int {
	weights := make([]float64, ranks)
	var sum float64
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), s)
		sum += weights[r]
	}
	counts := make([]int, ranks)
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, ranks)
	given := 0
	for r, w := range weights {
		exact := float64(n) * w / sum
		counts[r] = int(exact)
		given += counts[r]
		rems[r] = rem{r, exact - float64(counts[r])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; i < n-given; i++ {
		counts[rems[i].rank]++
	}
	return counts
}

// zipfDeck returns n ranks in which rank r appears exactly
// zipfCounts(n, ranks, s)[r] times, in seeded order. Popularity is
// therefore the same on every seed — the same number of distinct keys,
// the same hit counts per key — and only the order of the calls and the
// bytes of the inputs vary, which keeps the count metrics from moving
// with the seed.
func zipfDeck(r *rand.Rand, n, ranks int, s float64) []int {
	out := make([]int, 0, n)
	for rank, c := range zipfCounts(n, ranks, s) {
		for i := 0; i < c; i++ {
			out = append(out, rank)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// deck returns n draws of categories 0..len(counts)-1 in which every
// consecutive block of sum(counts) draws holds exactly counts[c] of
// category c, in seeded order. Stratifying the categorical choices
// keeps the totals (calls, bytes, hit share) identical across seeds;
// only order and key popularity vary.
func deck(r *rand.Rand, n int, counts ...int) []uint8 {
	var block []uint8
	for c, k := range counts {
		for i := 0; i < k; i++ {
			block = append(block, uint8(c))
		}
	}
	out := make([]uint8, 0, n+len(block))
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// hit_small: every call reuses one of pool pre-populated 4 KiB results,
// Zipf(1.1) over them.
func genHitSmall(w *workload, seed uint64, sz sizing) *stream {
	pool := scaledPool(w.pool, sz)
	st := &stream{
		inputs:        makeInputs(w.name, seed, pool, func(uint32) int { return 4 * kib }),
		compute:       expand,
		distinctBytes: int64(pool) * 4 * kib,
	}
	for id := 0; id < pool; id++ {
		st.prepop = append(st.prepop, uint32(id))
	}
	r := newRand(seed, 1)
	for _, rank := range zipfDeck(r, scaled(w.warmup, sz.ops, 16), pool, 1.1) {
		st.warm.add(0, true, uint32(rank))
	}
	for _, rank := range zipfDeck(r, scaled(w.calls, sz.ops, 40), pool, 1.1) {
		st.main.add(0, true, uint32(rank))
	}
	return st
}

// miss_durable: every call is a new 4 KiB result.
func genMissDurable(w *workload, seed uint64, sz sizing) *stream {
	calls, warm := scaled(w.calls, sz.ops, 40), scaled(w.warmup, sz.ops, 16)
	st := &stream{
		inputs:        makeInputs(w.name, seed, calls+warm, func(uint32) int { return 4 * kib }),
		compute:       expand,
		distinctBytes: int64(calls+warm) * 4 * kib,
	}
	for i := 0; i < warm; i++ {
		st.warm.add(0, false, uint32(calls+i))
	}
	for i := 0; i < calls; i++ {
		st.main.add(0, false, uint32(i))
	}
	return st
}

// overlap_chunked corpus shape: families × variants results of
// overlapResult bytes; a variant is its family's base with
// overlapEdits seeded windows of overlapEdit bytes overwritten.
const (
	overlapFamilies = 64
	overlapVariants = 32
	overlapResult   = 256 * kib
	overlapEdit     = 4 * kib
	overlapEdits    = 6
	// overlapWarmFamilies extra families exist only for the warm-up, so
	// the first touch of every measured id is a miss.
	overlapWarmFamilies = 2
)

// corpus holds the family bases of overlap_chunked.
type corpus struct{ bases [][]byte }

func newCorpus(seed uint64, families int) *corpus {
	c := &corpus{bases: make([][]byte, families)}
	var key [12]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	for f := range c.bases {
		binary.LittleEndian.PutUint32(key[8:], uint32(f))
		c.bases[f] = make([]byte, overlapResult)
		fillStream(c.bases[f], key[:])
	}
	return c
}

// variant is overlap_chunked's marked computation: copy the family
// base and overwrite overlapEdits windows whose offsets and contents
// are keyed by the input.
func (c *corpus) variant(input []byte) ([]byte, error) {
	if len(input) != inputLen {
		return nil, fmt.Errorf("variant: input of %d bytes", len(input))
	}
	family := int(inputID(input)) / overlapVariants
	if family >= len(c.bases) {
		return nil, fmt.Errorf("variant: family %d out of range", family)
	}
	out := make([]byte, overlapResult)
	copy(out, c.bases[family])
	var offs [overlapEdits * 4]byte
	fillStream(offs[:], append([]byte("off"), input...))
	key := append([]byte("edit0"), input...)
	for e := 0; e < overlapEdits; e++ {
		off := int(binary.LittleEndian.Uint32(offs[e*4:]) % (overlapResult - overlapEdit))
		key[4] = byte('0' + e)
		fillStream(out[off:off+overlapEdit], key)
	}
	return out, nil
}

// overlapID maps a popularity rank to an id so that hot ranks spread
// over all families instead of filling family 0 first. 1237 is odd, so
// the map is a bijection on the 2048 ids.
func overlapID(rank, ids int) uint32 { return uint32(rank * 1237 % ids) }

func genOverlapChunked(w *workload, seed uint64, sz sizing) *stream {
	ids := overlapFamilies * overlapVariants
	warmIDs := overlapWarmFamilies * overlapVariants
	c := newCorpus(seed, overlapFamilies+overlapWarmFamilies)
	st := &stream{
		inputs:  makeInputs(w.name, seed, ids+warmIDs, func(uint32) int { return overlapResult }),
		compute: c.variant,
	}
	for i, n := 0, scaled(w.warmup, sz.ops, 4); i < n; i++ {
		st.warm.add(0, i >= warmIDs, uint32(ids+i%warmIDs))
	}
	seen := make([]bool, ids)
	distinct := min(scaled(w.warmup, sz.ops, 4), warmIDs)
	for _, rank := range zipfDeck(newRand(seed, 1), scaled(w.calls, sz.ops, 40), ids, 1.0) {
		id := overlapID(rank, ids)
		st.main.add(0, seen[id], id)
		if !seen[id] {
			seen[id] = true
			distinct++
		}
	}
	st.distinctBytes = int64(distinct) * overlapResult
	return st
}

// cluster_mix shape: of every 8 requests 7 are single calls and 1 is a
// batch of clusterBatch; of every 10 inputs 7 come from the pool and 3
// are new; of every 20 results 10 / 7 / 3 are 1 / 8 / 64 KiB.
const clusterBatch = 8

var clusterSizes = [3]int{1 * kib, 8 * kib, 64 * kib}

// clusterPoolSize gives pool input id its result size class. It is a
// fixed function of the id, not of the seed, so the hot end of the
// Zipf ranking has the same size make-up on every seed.
func clusterPoolSize(id uint32) int {
	switch c := (id * 2654435761 >> 16) % 20; {
	case c < 10:
		return clusterSizes[0]
	case c < 17:
		return clusterSizes[1]
	default:
		return clusterSizes[2]
	}
}

func genClusterMix(w *workload, seed uint64, sz sizing) *stream {
	// The stream is built from blocks of 16 requests = 30 calls, the
	// smallest unit in which the 7:1 and 7:3 mixes are both whole.
	pool := scaledPool(w.pool, sz)
	mainBlocks := scaled(w.calls/30, sz.ops, 2)
	warmBlocks := scaled(w.warmup/30, sz.ops, 1)
	maxNew := (mainBlocks + warmBlocks) * 9

	r := newRand(seed, 1)
	newSizes := deck(r, maxNew, 10, 7, 3)
	sizeOf := func(id uint32) int {
		if int(id) < pool {
			return clusterPoolSize(id)
		}
		return clusterSizes[newSizes[int(id)-pool]]
	}
	st := &stream{
		inputs:  makeInputs(w.name, seed, pool+maxNew, sizeOf),
		compute: expand,
	}
	for id := 0; id < pool; id++ {
		st.prepop = append(st.prepop, uint32(id))
		st.distinctBytes += int64(sizeOf(uint32(id)))
	}

	next := uint32(pool)
	fill := func(seg *segment, blocks int) {
		reqs := 16 * blocks
		kinds := deck(r, reqs, 7, 1)
		fresh := deck(r, 30*blocks, 7, 3)
		ranks := zipfDeck(r, 21*blocks, pool, 0.99)
		// Poisson arrivals: exponential gaps, then normalised so the
		// schedule spans exactly reqs/rate on every seed.
		gaps := make([]float64, reqs)
		var total float64
		for i := range gaps {
			gaps[i] = r.ExpFloat64()
			total += gaps[i]
		}
		var at float64
		for i := 0; i < reqs; i++ {
			at += gaps[i]
			due := int64(at / total * float64(reqs) / w.rate * 1e9)
			n := 1
			if kinds[i] == 1 {
				n = clusterBatch
			}
			first := len(seg.ids)
			for j := 0; j < n; j++ {
				if fresh[len(seg.ids)] == 1 {
					seg.ids = append(seg.ids, next)
					seg.hit = append(seg.hit, false)
					st.distinctBytes += int64(sizeOf(next))
					next++
				} else {
					seg.ids = append(seg.ids, uint32(ranks[0]))
					seg.hit = append(seg.hit, true)
					ranks = ranks[1:]
				}
			}
			seg.reqs = append(seg.reqs, request{first: int32(first), n: int32(n), due: due})
		}
	}
	fill(&st.warm, warmBlocks)
	fill(&st.main, mainBlocks)
	return st
}
