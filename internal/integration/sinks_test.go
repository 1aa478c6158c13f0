package integration_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"speed/internal/chunk"
	"speed/internal/cluster"
	"speed/internal/dedup"
	"speed/internal/enclave"
	"speed/internal/mle"
	"speed/internal/store"
	"speed/internal/telemetry"
	"speed/internal/wire"
)

// TestNoPlaintextAtSinks checks SPEED's confidentiality promise where
// bytes leave the process rather than where code names them: no input
// m, result, challenge r, wrapped key [k] or result key k may reach
// the untrusted store host unsealed. Several applications run whole
// and chunked results, a poisoned entry, eviction, flushes, Compact,
// a crash and reopen of a log-engine member and a cluster failover,
// each call with a fresh random input and result. Three sinks are
// recorded meanwhile:
//
//   - disk: every file under each member's DataDir at each phase
//     boundary (the log engine's own test, TestNoPlaintextInFileWrites,
//     sees every write, including files later removed);
//   - socket: every byte on each store server's accepted connections;
//   - log: every Logf line of the runtimes, stores, servers and
//     cluster client, and the /metrics, /debug/trace and /debug/vars
//     bodies of every telemetry registry.
//
// Any 16-byte window of a secret found in a stream — as raw bytes, or
// as the hex, base64 or decimal-list text fmt and encoding/json print
// a []byte as — fails with the sink, the stream, the offset and the
// command that reruns the seed. k is derived from (func, m, r, [k]),
// as a store host holding all four could. Tags may appear on disk and
// in logs, because the store host sees them; on the socket nothing
// may appear below the channel's AEAD, tags and ciphertext included.
func TestNoPlaintextAtSinks(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runSinks(t, seed) })
	}
}

const (
	sinkDisk   = "disk"
	sinkSocket = "socket"
	sinkLog    = "log"
)

// window is the length of the shortest secret fragment the check finds.
const window = 16

// secret is one canary: bytes no sink may carry. socketOnly marks the
// values the store host may see (tags, result ciphertext), which only
// the socket, below the channel's AEAD, must not carry.
type secret struct {
	what       string
	b          []byte
	socketOnly bool
}

// canaries indexes every 16-byte window of every secret by a hash of
// the window, so a stream is checked in one pass.
type canaries struct {
	mu      sync.Mutex
	secrets []secret
	windows map[uint64]uint64 // window hash -> secret index<<32 | offset
}

func windowHash(w []byte) uint64 {
	lo, hi := binary.LittleEndian.Uint64(w), binary.LittleEndian.Uint64(w[8:])
	return lo*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(hi*0xc2b2ae3d27d4eb4f, 31)
}

func (c *canaries) add(what string, b []byte, socketOnly bool) {
	if len(b) < window {
		panic(fmt.Sprintf("canary %s is %d bytes, shorter than a window", what, len(b)))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := uint64(len(c.secrets))
	c.secrets = append(c.secrets, secret{what: what, b: bytes.Clone(b), socketOnly: socketOnly})
	for off := 0; off+window <= len(b); off++ {
		h := windowHash(b[off:])
		if _, ok := c.windows[h]; !ok {
			c.windows[h] = idx<<32 | uint64(off)
		}
	}
}

// finding is one secret window found in a stream.
type finding struct {
	off    int    // offset in the stream
	as     string // the encoding it was found in
	secret secret
	at     int // offset of the window in the secret
}

// scan returns the first occurrence of each secret in stream under
// each encoding, skipping the socket-only secrets outside the socket.
func (c *canaries) scan(stream []byte, sink string) []finding {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []finding
	seen := make(map[int]bool)
	for _, v := range decodings(stream) {
		for i := 0; i+window <= len(v.b); i++ {
			ref, ok := c.windows[windowHash(v.b[i:])]
			if !ok {
				continue
			}
			idx, off := int(ref>>32), int(uint32(ref))
			s := c.secrets[idx]
			if seen[idx] || (s.socketOnly && sink != sinkSocket) || !bytes.Equal(v.b[i:i+window], s.b[off:off+window]) {
				continue
			}
			seen[idx] = true
			at := v.start
			if at < 0 {
				at = i
			}
			out = append(out, finding{off: at, as: v.as, secret: s, at: off})
		}
	}
	return out
}

// view is the stream itself (start < 0), or the bytes spelt by a run
// of text in it that starts at start.
type view struct {
	as    string
	b     []byte
	start int
}

// decodings returns the stream itself and the bytes spelt by every run
// of hex digits, base64 characters or space- or comma-separated
// decimal bytes long enough to hold a window, at every alignment.
func decodings(stream []byte) []view {
	views := []view{{as: "raw", b: stream, start: -1}}
	runs := func(as string, isRunByte func(byte) bool, minLen int, decode func(run []byte) [][]byte) {
		for i := 0; i < len(stream); {
			if !isRunByte(stream[i]) {
				i++
				continue
			}
			j := i
			for j < len(stream) && isRunByte(stream[j]) {
				j++
			}
			if j-i >= minLen {
				for _, b := range decode(stream[i:j]) {
					views = append(views, view{as: as, b: b, start: i})
				}
			}
			i = j
		}
	}
	isHex := func(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }
	runs("hex", isHex, 2*window, func(run []byte) [][]byte {
		var out [][]byte
		for align := 0; align < 2; align++ {
			s := run[align:]
			b := make([]byte, len(s)/2)
			if _, err := hex.Decode(b, s[:2*len(b)]); err == nil {
				out = append(out, b)
			}
		}
		return out
	})
	isB64 := func(c byte) bool {
		return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '+' || c == '/'
	}
	runs("base64", isB64, base64.RawStdEncoding.EncodedLen(window), func(run []byte) [][]byte {
		var out [][]byte
		for align := 0; align < 4 && align < len(run); align++ {
			s := run[align:]
			s = s[:len(s)/4*4]
			b := make([]byte, base64.RawStdEncoding.DecodedLen(len(s)))
			if n, err := base64.RawStdEncoding.Decode(b, s); err == nil {
				out = append(out, b[:n])
			}
		}
		return out
	})
	isDec := func(c byte) bool { return '0' <= c && c <= '9' || c == ' ' || c == ',' }
	runs("decimal", isDec, 2*window, func(run []byte) [][]byte {
		var b []byte
		for _, f := range strings.FieldsFunc(string(run), func(r rune) bool { return r == ' ' || r == ',' }) {
			v, err := strconv.Atoi(f)
			if err != nil || v > 255 {
				return nil
			}
			b = append(b, byte(v))
		}
		return [][]byte{b}
	})
	return views
}

// sinks records the three sinks and the canaries they are checked for.
type sinks struct {
	t     *testing.T
	seed  int64
	c     *canaries
	mu    sync.Mutex
	socks []*stream
	logs  map[string]*stream
	found int // findings so far; past maxFindings only counted
}

// maxFindings caps the findings a run reports one by one.
const maxFindings = 20

// stream is one recorded byte stream: a connection direction or a
// logger's output.
type stream struct {
	name string
	mu   sync.Mutex
	b    []byte
}

func (s *stream) write(p []byte) {
	s.mu.Lock()
	s.b = append(s.b, p...)
	s.mu.Unlock()
}

func (s *stream) bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Clone(s.b)
}

func newSinks(t *testing.T, seed int64) *sinks {
	return &sinks{t: t, seed: seed, c: &canaries{windows: make(map[uint64]uint64)}, logs: make(map[string]*stream)}
}

// check fails the test for every secret found in one stream of a sink.
func (s *sinks) check(sink, name string, data []byte) {
	s.t.Helper()
	for _, f := range s.c.scan(data, sink) {
		if s.found++; s.found > maxFindings {
			continue
		}
		s.t.Errorf("%s %s: offset %d holds bytes %d..%d of %s (%s); rerun: go test ./internal/integration -run 'TestNoPlaintextAtSinks/seed=%d'",
			sink, name, f.off, f.at, f.at+window, f.secret.what, f.as, s.seed)
	}
}

// logf returns a Logf that records into the named log stream.
func (s *sinks) logf(source string) func(string, ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.logs[source]
	if st == nil {
		st = &stream{name: source}
		s.logs[source] = st
	}
	return func(format string, args ...any) { st.write([]byte(fmt.Sprintf(format, args...) + "\n")) }
}

// listen returns a loopback listener on addr whose accepted
// connections record both directions.
func (s *sinks) listen(t *testing.T, node, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	return &recListener{Listener: ln, s: s, node: node}
}

type recListener struct {
	net.Listener
	s    *sinks
	node string
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.s.mu.Lock()
	n := len(l.s.socks) / 2
	in := &stream{name: fmt.Sprintf("%s conn %d (client to store)", l.node, n)}
	out := &stream{name: fmt.Sprintf("%s conn %d (store to client)", l.node, n)}
	l.s.socks = append(l.s.socks, in, out)
	l.s.mu.Unlock()
	return &recConn{Conn: c, in: in, out: out}, nil
}

type recConn struct {
	net.Conn
	in, out *stream
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.write(p[:n])
	return n, err
}

// Close first drains what the peer sent that the store never read —
// a server drops a connection at the first bad frame — so the stream
// holds every byte that reached the connection. The server may reset
// the read deadline under the drain, so a timer bounds it too.
func (c *recConn) Close() error {
	stop := time.AfterFunc(20*time.Millisecond, func() { c.Conn.Close() })
	defer stop.Stop()
	_ = c.Conn.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	rest, _ := io.ReadAll(c.Conn)
	c.in.write(rest)
	return c.Conn.Close()
}

func (c *recConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.write(p[:n])
	return n, err
}

// checkDisk checks every file under dir as it stands after phase.
func (s *sinks) checkDisk(node, dir, phase string) {
	s.t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil // a frozen WAL the background writer retired mid-walk
		}
		if err != nil {
			return err
		}
		s.check(sinkDisk, fmt.Sprintf("%s %s after %s", node, d.Name(), phase), data)
		return nil
	})
	if err != nil {
		s.t.Fatalf("walk %s: %v", dir, err)
	}
}

// checkRegistry checks the registry's three HTTP bodies.
func (s *sinks) checkRegistry(name string, reg *telemetry.Registry) {
	s.t.Helper()
	for _, path := range []string{"/metrics", "/debug/trace", "/debug/vars"} {
		w := httptest.NewRecorder()
		reg.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		s.check(sinkLog, name+" "+path, w.Body.Bytes())
	}
}

// checkStreams checks every recorded socket and log stream.
func (s *sinks) checkStreams() {
	s.t.Helper()
	s.mu.Lock()
	socks := append([]*stream(nil), s.socks...)
	var logs []*stream
	for _, st := range s.logs {
		logs = append(logs, st)
	}
	s.mu.Unlock()
	sort.Slice(logs, func(i, j int) bool { return logs[i].name < logs[j].name })
	for _, st := range socks {
		s.check(sinkSocket, st.name, st.bytes())
	}
	for _, st := range logs {
		s.check(sinkLog, st.name+" Logf", st.bytes())
	}
}

// identity is a (func, input) pair an entry may be sealed under.
type identity struct {
	id    mle.FuncID
	input []byte
}

// calls keeps each call's canaries: it registers m and the result,
// and, as the applications upload entries, the entries' r, [k], the k
// they wrap, the tag and the ciphertext.
type calls struct {
	s       *sinks
	chunker *chunk.Chunker

	mu      sync.Mutex
	results map[string][]byte      // input -> result
	ids     map[mle.Tag][]identity // tag -> what its entry may be sealed under
	n       int
}

func newCalls(t *testing.T, s *sinks) *calls {
	ck, err := chunk.NewChunker(chunk.Config{}) // the runtime's geometry
	if err != nil {
		t.Fatal(err)
	}
	return &calls{s: s, chunker: ck, results: make(map[string][]byte), ids: make(map[mle.Tag][]identity)}
}

// fresh draws a new call of id: a random input of 16..maxIn bytes and
// a random result of resLo..resHi bytes, both registered as canaries.
func (c *calls) fresh(rng *rand.Rand, id mle.FuncID, maxIn, resLo, resHi int) []byte {
	in := make([]byte, window+rng.Intn(maxIn-window+1))
	res := make([]byte, resLo+rng.Intn(resHi-resLo+1))
	rng.Read(in)
	rng.Read(res)
	c.mu.Lock()
	n := c.n
	c.n++
	c.results[string(in)] = res
	tag := mle.ComputeTag(id, in)
	c.ids[tag] = append(c.ids[tag], identity{id, in}, identity{chunk.ManifestFuncID(id), in})
	contentID := chunk.ContentFuncID(id)
	for _, piece := range c.chunker.Split(res) {
		h := chunk.Hash(piece)
		ct := chunk.Tag(contentID, h)
		c.ids[ct] = append(c.ids[ct], identity{contentID, h[:]})
	}
	c.mu.Unlock()
	c.s.c.add(fmt.Sprintf("input m of call %d", n), in, false)
	c.s.c.add(fmt.Sprintf("result of call %d", n), res, false)
	return in
}

// compute is every application's function: the registered result.
func (c *calls) compute(in []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.results[string(in)]
	if !ok {
		return nil, fmt.Errorf("no result registered for a %d-byte input", len(in))
	}
	return res, nil
}

// uploaded registers the secrets of an entry an application uploads.
func (c *calls) uploaded(it wire.PutItem) {
	c.mu.Lock()
	ids := c.ids[it.Tag]
	c.mu.Unlock()
	sl := it.Sealed
	short := hex.EncodeToString(it.Tag[:4])
	c.s.c.add("challenge r of entry "+short, sl.Challenge, false)
	c.s.c.add("wrapped key [k] of entry "+short, sl.WrappedKey, false)
	c.s.c.add("tag of entry "+short, it.Tag[:], true)
	c.s.c.add("ciphertext of entry "+short, sl.Blob, true)
	for _, who := range ids {
		k, err := mle.KeyRec(who.id, who.input, sl.Challenge, sl.WrappedKey)
		if err != nil {
			continue
		}
		if _, err := mle.DecryptResult(k, sl.Blob); err == nil {
			c.s.c.add("key k of entry "+short, k, false)
			return
		}
	}
	c.s.t.Errorf("entry %s decrypts under no identity its call registered", short)
}

// recordingClient is an application's store client seen from inside
// the application: it registers every entry the application uploads.
type recordingClient struct {
	dedup.StoreClient
	calls *calls
}

func (r *recordingClient) Put(tc wire.TraceContext, items []wire.PutItem) ([]wire.PutResult, error) {
	for _, it := range items {
		r.calls.uploaded(it)
	}
	return r.StoreClient.Put(tc, items)
}

// sinkNode is one log-engine store member behind a recording listener.
type sinkNode struct {
	name, dir, addr string
	cfg             store.Config
	st              *store.Store
	srv             *store.Server
	reg             *telemetry.Registry
	wg              sync.WaitGroup
}

func (s *sinks) startNode(t *testing.T, n *sinkNode, enc *enclave.Enclave, addr string) {
	t.Helper()
	n.reg = telemetry.NewRegistry()
	cfg := n.cfg
	cfg.Enclave, cfg.DataDir, cfg.Telemetry = enc, n.dir, n.reg
	cfg.Logf = s.logf(n.name + " store")
	st, err := store.New(cfg)
	if err != nil {
		t.Fatalf("open %s: %v", n.name, err)
	}
	ln := s.listen(t, n.name, addr)
	n.st, n.addr = st, ln.Addr().String()
	n.srv = store.NewServer(st, ln, store.WithLogf(s.logf(n.name+" server")),
		store.WithTelemetry(n.reg), store.WithSlowRequestLog(time.Nanosecond))
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.srv.Serve()
	}()
}

func (n *sinkNode) stop(crash bool) {
	_ = n.srv.Close()
	n.wg.Wait()
	if crash {
		n.st.Crash()
	} else {
		n.st.Close()
	}
}

func runSinks(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := newSinks(t, seed)
	cs := newCalls(t, s)
	p := enclave.NewPlatform(enclave.Config{PlatformSeed: []byte(fmt.Sprint("sinks-", seed))})
	storeCode := []byte("store code")
	newEnclave := func(name string, code []byte) *enclave.Enclave {
		enc, err := p.Create(name, code)
		if err != nil {
			t.Fatalf("create enclave %s: %v", name, err)
		}
		return enc
	}

	// Two log-engine members. a is capped, so it evicts, and both
	// flush small memtables often enough to give Compact a run.
	nodes := []*sinkNode{
		{name: "a", dir: t.TempDir(), cfg: store.Config{MaxEntries: 40, MemtableBytes: 8 << 10, CompactInterval: -1}},
		{name: "b", dir: t.TempDir(), cfg: store.Config{MemtableBytes: 8 << 10, CompactInterval: -1}},
	}
	for _, n := range nodes {
		s.startNode(t, n, newEnclave("store-"+n.name, storeCode), "127.0.0.1:0")
	}
	// The registries' bodies, the directories as closing leaves them
	// and the socket and log streams are checked last, also after a
	// failure ends the run early.
	regs := map[string]*telemetry.Registry{"a": nodes[0].reg, "b": nodes[1].reg}
	var apps []*dedup.Runtime
	defer func() {
		names := make([]string, 0, len(regs))
		for name := range regs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s.checkRegistry(name, regs[name])
		}
		for _, rt := range apps {
			_ = rt.Close()
		}
		for _, n := range nodes {
			if !n.st.Closed() {
				n.stop(false)
			}
			s.checkDisk(n.name, n.dir, "close")
		}
		s.checkStreams()
		if s.found > maxFindings {
			t.Errorf("%d more findings not shown", s.found-maxFindings)
		}
	}()
	storeMeas := nodes[0].st.Enclave().Measurement()

	// Three applications: alpha and beta share the cluster client's
	// shape and chunk large results; gamma reaches member a directly
	// and uploads whole results only.
	appReg := telemetry.NewRegistry()
	regs["apps"] = appReg
	remote := dedup.RemoteConfig{DialTimeout: 300 * time.Millisecond, RequestTimeout: 2 * time.Second,
		ProbeInterval: 5 * time.Millisecond, Telemetry: appReg}
	var clusters []*cluster.Client
	newApp := func(name string, viaCluster bool) (*dedup.Runtime, mle.FuncID) {
		enc := newEnclave(name, []byte(name+" code"))
		var client dedup.StoreClient
		chunkThreshold := 0
		if viaCluster {
			cc, err := cluster.New(cluster.Config{Nodes: []string{nodes[0].addr, nodes[1].addr}, App: enc,
				StoreMeasurement: storeMeas, Remote: remote, Telemetry: appReg, Logf: s.logf(name + " cluster")})
			if err != nil {
				t.Fatalf("cluster.New: %v", err)
			}
			clusters = append(clusters, cc)
			client, chunkThreshold = cc, 12<<10
		} else {
			rc, err := dedup.DialConfig(nodes[0].addr, enc, storeMeas, remote)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			client = rc
		}
		rt, err := dedup.NewRuntime(dedup.Config{Enclave: enc, Client: &recordingClient{client, cs},
			ChunkThreshold: chunkThreshold, Telemetry: appReg, TraceSampleRate: 1, Logf: s.logf(name + " runtime")})
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		apps = append(apps, rt)
		rt.Registry().RegisterLibrary("applib", "1.0", []byte("app library code"))
		return rt, appFuncID(t, rt, "f")
	}
	alpha, id := newApp("alpha", true)
	beta, _ := newApp("beta", true)
	gamma, _ := newApp("gamma", false)

	var done [][]byte // inputs already computed, for hits
	run := func(rt *dedup.Runtime, in []byte) {
		t.Helper()
		res, _, err := rt.Execute(id, in, cs.compute)
		want, _ := cs.compute(in)
		if err != nil || !bytes.Equal(res, want) {
			t.Fatalf("Execute = (%d bytes, %v), want the registered %d-byte result", len(res), err, len(want))
		}
		done = append(done, in)
	}
	whole := func(rt *dedup.Runtime, n int) {
		for i := 0; i < n; i++ {
			run(rt, cs.fresh(rng, id, 256, window, 2<<10))
		}
	}
	hits := func(rt *dedup.Runtime, n int) {
		for i := 0; i < n; i++ {
			run(rt, done[rng.Intn(len(done))])
		}
	}
	// A phase ends with a look at each directory, its WAL still full,
	// then a checkpoint, whose segment the next look sees.
	phase := func(name string) {
		t.Helper()
		for _, n := range nodes {
			s.checkDisk(n.name, n.dir, name)
			if !n.st.Closed() {
				if err := n.st.Checkpoint(); err != nil {
					t.Fatalf("checkpoint %s: %v", n.name, err)
				}
			}
		}
	}

	// Whole results, single and batched, reused within and across
	// applications.
	for _, rt := range apps {
		whole(rt, 6)
		ins := [][]byte{cs.fresh(rng, id, 256, window, 2<<10), cs.fresh(rng, id, 256, window, 2<<10)}
		out, err := rt.ExecuteBatch(id, ins, cs.compute)
		if err != nil || out[0].Err != nil || out[1].Err != nil {
			t.Fatalf("ExecuteBatch: %v %+v", err, out)
		}
		done = append(done, ins...)
		hits(rt, 4)
	}
	phase("whole")

	// Chunked results, reassembled by the other chunking application.
	for i := 0; i < 3; i++ {
		in := cs.fresh(rng, id, 256, 24<<10, 40<<10)
		run(alpha, in)
		run(beta, in)
	}
	if alpha.Stats().ChunkedPuts == 0 || beta.Stats().ManifestReuses == 0 {
		t.Fatalf("no chunked round trip: alpha %+v, beta %+v", alpha.Stats(), beta.Stats())
	}
	phase("chunked")

	// Poisoning: the store host plants entries under the tags of calls
	// about to run; each application rejects its entry, recomputes and
	// replaces it.
	for _, rt := range apps {
		in := cs.fresh(rng, id, 256, window, 2<<10)
		junk := make([]byte, 2*mle.KeySize+64)
		rng.Read(junk)
		planted := mle.Sealed{Challenge: junk[:16], WrappedKey: junk[16:32], Blob: junk[32:]}
		for _, n := range nodes {
			if _, err := n.st.Put(rt.Enclave().Measurement(), mle.ComputeTag(id, in), planted); err != nil {
				t.Fatalf("plant: %v", err)
			}
		}
		run(rt, in)
		if rt.Stats().VerifyFailures == 0 {
			t.Fatalf("%s accepted a planted entry", rt.Enclave().Name())
		}
	}
	phase("poison")

	// Eviction and flushes: more fresh results than a holds.
	for _, rt := range apps {
		whole(rt, 12)
	}
	phase("evict")
	if nodes[0].st.Stats().Evictions == 0 || nodes[0].st.EngineStats().Flushes == 0 {
		t.Fatalf("member a neither evicted nor flushed: %+v", nodes[0].st.Stats())
	}

	for _, n := range nodes {
		if err := n.st.Compact(); err != nil {
			t.Fatalf("compact %s: %v", n.name, err)
		}
	}
	phase("compact")
	if nodes[0].st.EngineStats().Compactions+nodes[1].st.EngineStats().Compactions == 0 {
		t.Fatal("Compact merged nothing")
	}

	// Member a crashes with PUTs in its WAL: the cluster fails over to
	// b while gamma runs compute-only; a reopens its directory in a
	// fresh enclave on the same address and the cluster repairs it on
	// read.
	a := nodes[0]
	whole(alpha, 2)
	whole(gamma, 2)
	a.stop(true)
	s.checkDisk(a.name, a.dir, "crash")
	whole(alpha, 4)
	hits(beta, 6)
	whole(gamma, 2)
	if clusters[0].Failovers()+clusters[1].Failovers() == 0 {
		t.Fatal("no request failed over while member a was down")
	}
	s.startNode(t, a, newEnclave("store-a-reopened", storeCode), a.addr)
	regs["a reopened"] = a.reg
	up := func() bool { return clusters[0].NodeUp(0) && clusters[1].NodeUp(0) && !gamma.Degraded() }
	for deadline := time.Now().Add(5 * time.Second); !up(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("member a never came back up")
		}
	}
	hits(alpha, 6)
	whole(beta, 4)
	hits(gamma, 4)
	phase("reopen")
}
