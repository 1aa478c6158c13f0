package fleet

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"speed/internal/telemetry"
)

func TestParsePromSamplesAndLabels(t *testing.T) {
	text := `# HELP speed_store_gets_total GET requests
# TYPE speed_store_gets_total counter
speed_store_gets_total 41
speed_store_hits_total{app="demo"} 17
speed_store_hits_total{app="other"} 3
speed_server_request_seconds_bucket{le="0.001"} 90
speed_server_request_seconds_bucket{le="0.016"} 99
speed_server_request_seconds_bucket{le="+Inf"} 100
speed_server_request_seconds_sum 0.42
speed_server_request_seconds_count 100
garbage line without a number value
`
	m, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Sum("speed_store_gets_total"); got != 41 {
		t.Fatalf("gets = %v, want 41", got)
	}
	if got := m.Sum("speed_store_hits_total"); got != 20 {
		t.Fatalf("hits summed across label sets = %v, want 20", got)
	}
	if m.Has("speed_nonexistent") {
		t.Fatal("Has() true for absent family")
	}
	p50, ok := m.Quantile("speed_server_request_seconds", 0.50)
	if !ok || p50 != 0.001 {
		t.Fatalf("p50 = %v,%v, want 0.001", p50, ok)
	}
	p99, ok := m.Quantile("speed_server_request_seconds", 0.99)
	if !ok || p99 != 0.016 {
		t.Fatalf("p99 = %v,%v, want 0.016", p99, ok)
	}
	// Rank 100 lands in +Inf: reported as the last finite bound.
	p100, ok := m.Quantile("speed_server_request_seconds", 1)
	if !ok || p100 != 0.016 {
		t.Fatalf("p100 = %v,%v, want 0.016 floor", p100, ok)
	}
}

func TestLabelValue(t *testing.T) {
	labels := `app="demo",le="0.25",node="127.0.0.1:7800"`
	for _, tc := range []struct {
		key, want string
		ok        bool
	}{
		{"le", "0.25", true},
		{"app", "demo", true},
		{"node", "127.0.0.1:7800", true},
		{"missing", "", false},
		{"e", "", false}, // must not match the tail of "le"
	} {
		got, ok := labelValue(labels, tc.key)
		if got != tc.want || ok != tc.ok {
			t.Errorf("labelValue(%q) = %q,%v, want %q,%v", tc.key, got, ok, tc.want, tc.ok)
		}
	}
}

// traceEvents builds the spans three nodes would record for one
// cross-node call: client root -> router leg -> store span, plus a
// second leg that failed over.
func traceEvents(traceID string) (client, store1, store2 []telemetry.TraceEvent) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	client = []telemetry.TraceEvent{
		{Time: t0, Name: "execute", TraceID: traceID, SpanID: "aaaa", Node: "app:9090", TotalNS: 4e6},
		{Time: t0, Name: "route_get", TraceID: traceID, SpanID: "bbbb", ParentID: "aaaa", Node: "app:9090", TotalNS: 2e6, Err: "connection refused"},
		{Time: t0.Add(time.Millisecond), Name: "route_get", TraceID: traceID, SpanID: "cccc", ParentID: "aaaa", Node: "app:9090", TotalNS: 1e6, Outcome: "hit"},
	}
	store1 = []telemetry.TraceEvent{
		{Time: t0.Add(2 * time.Millisecond), Name: "store_get", TraceID: traceID, SpanID: "dddd", ParentID: "cccc", Node: "store1:9091", TotalNS: 5e5},
	}
	store2 = []telemetry.TraceEvent{
		// Unrelated trace on the same node must not join this tree.
		{Time: t0, Name: "store_put", TraceID: "ffff", SpanID: "eeee", Node: "store2:9092", TotalNS: 1e5},
	}
	return
}

func TestAssembleLinksSpansAcrossNodes(t *testing.T) {
	const id = "0123456789abcdef0123456789abcdef"
	client, store1, store2 := traceEvents(id)
	traces := Assemble([]NodeStatus{
		{Addr: "app:9090", Events: client},
		{Addr: "store1:9091", Events: store1},
		{Addr: "store2:9092", Events: store2},
		// The same node polled again: duplicates must collapse.
		{Addr: "store1:9091", Events: store1},
	})
	if len(traces) != 2 {
		t.Fatalf("assembled %d traces, want 2", len(traces))
	}
	tr := traces[0] // slowest first: the 4ms execute trace
	if tr.ID != id {
		t.Fatalf("slowest trace = %s, want %s", tr.ID, id)
	}
	if tr.Spans != 4 {
		t.Fatalf("spans = %d, want 4 (duplicate poll must collapse)", tr.Spans)
	}
	if !tr.Complete() {
		t.Fatalf("trace incomplete: root=%v orphans=%d", tr.Root, len(tr.Orphans))
	}
	if tr.Root.Event.Name != "execute" {
		t.Fatalf("root = %s, want execute", tr.Root.Event.Name)
	}
	if len(tr.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2 legs", len(tr.Root.Children))
	}
	// Children sorted by time: failed leg first, then the hit leg
	// carrying the store span.
	hitLeg := tr.Root.Children[1]
	if hitLeg.Event.Outcome != "hit" || len(hitLeg.Children) != 1 {
		t.Fatalf("hit leg = %+v with %d children, want store child", hitLeg.Event, len(hitLeg.Children))
	}
	if got := hitLeg.Children[0].Event; got.Name != "store_get" || got.Node != "store1:9091" {
		t.Fatalf("store span = %+v", got)
	}
	if tr.Total() != 4*time.Millisecond {
		t.Fatalf("total = %s, want 4ms", tr.Total())
	}
}

func TestAssembleOrphansWhenParentMissing(t *testing.T) {
	const id = "11112222333344445555666677778888"
	traces := Assemble([]NodeStatus{{
		Addr: "store1:9091",
		Events: []telemetry.TraceEvent{
			{Name: "store_get", TraceID: id, SpanID: "dddd", ParentID: "gone", Node: "store1:9091", TotalNS: 7e5},
		},
	}})
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Complete() || tr.Root != nil || len(tr.Orphans) != 1 {
		t.Fatalf("want rootless orphan trace, got root=%v orphans=%d", tr.Root, len(tr.Orphans))
	}
	if tr.Total() != 700*time.Microsecond {
		t.Fatalf("total from orphan = %s", tr.Total())
	}
}

func TestPollNodeScrapesRegistryEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetNode("store1:7800")
	reg.NewCounter("speed_store_gets_total", "").Add(10)
	reg.NewCounter("speed_store_hits_total", "").Add(4)
	reg.NewCounter("speed_wire_auth_failures_total", "").Add(2)
	reg.NewCounter("speed_store_puts_total", "").Add(6)
	reg.NewCounter("speed_store_engine_segment_probes_total", "", telemetry.L("engine", "log")).Add(4)
	reg.NewGaugeFunc("speed_store_engine_compaction_debt_bytes", "", func() float64 { return 3 << 20 }, telemetry.L("engine", "log"))
	h := reg.NewHistogram("speed_server_request_seconds", "")
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	reg.Trace().Add(telemetry.TraceEvent{
		Name: "store_get", TraceID: "abcd", SpanID: "1", Node: "store1:7800",
	})
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	var p Poller
	st := p.PollNode(srv.URL)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if st.Gets != 10 || st.Hits != 4 || st.AuthFailures != 2 {
		t.Fatalf("counters = %+v", st)
	}
	if got := st.ProbesPerLookup(); got != 0.25 || st.CompactionDebt != 3<<20 {
		t.Fatalf("probes per lookup = %v, debt = %d; want 0.25 (4 probes / 16 ops), 3 MiB", got, st.CompactionDebt)
	}
	if got := st.HitRate(); got != 0.4 {
		t.Fatalf("hit rate = %v, want 0.4", got)
	}
	if st.P99 <= 0 || st.P99 > 10*time.Millisecond {
		t.Fatalf("p99 = %s, want within a bucket of 100µs", st.P99)
	}
	if len(st.Events) != 1 || st.Events[0].TraceID != "abcd" {
		t.Fatalf("events = %+v", st.Events)
	}
	if st.TraceTotal != 1 {
		t.Fatalf("trace total = %d", st.TraceTotal)
	}
}

func TestRenderSmoke(t *testing.T) {
	const id = "0123456789abcdef0123456789abcdef"
	client, store1, store2 := traceEvents(id)
	sts := []NodeStatus{
		{Addr: "app:9090", Events: client, Gets: 100, Hits: 80, P99: 3 * time.Millisecond, SegmentProbes: 25, CompactionDebt: 12 << 20},
		{Addr: "store1:9091", Events: store1},
		{Addr: "store2:9092", Events: store2, Err: errPoll{}},
	}
	var sb strings.Builder
	RenderStatus(&sb, sts)
	RenderTraces(&sb, Assemble(sts[:2]), 3)
	out := sb.String()
	for _, want := range []string{"app:9090", "DOWN", "80.0%", "PROBE/OP", "0.25", "12.0MiB", id, "execute", "store_get", "@store1:9091"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
}

type errPoll struct{}

func (errPoll) Error() string { return "dial tcp: connection refused" }
