package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"speed/internal/telemetry"
)

// NodeStatus is one member's health as seen from its telemetry
// endpoints on one poll. A node that failed to answer has Err set and
// zero metrics; the console shows it as down rather than dropping it.
type NodeStatus struct {
	Addr string
	Err  error

	Gets, Hits    int64
	Puts          int64
	Entries       int64
	BlobBytes     int64
	ActiveConns   int64
	AuthFailures  int64
	AuthFailBytes int64
	WireIn        int64
	WireOut       int64
	Failovers     int64
	ReadRepairs   int64
	P99           time.Duration
	// SegmentProbes and CompactionDebt are the log engine's read
	// amplification (segment file lookups) and the segment bytes its
	// tiering policy would merge now; zero on a volatile store.
	SegmentProbes  int64
	CompactionDebt int64

	TraceTotal uint64
	Events     []telemetry.TraceEvent
}

// HitRate returns the node's dedup hit ratio in [0,1] (0 when it has
// served no gets).
func (n NodeStatus) HitRate() float64 {
	if n.Gets == 0 {
		return 0
	}
	return float64(n.Hits) / float64(n.Gets)
}

// ProbesPerLookup is the node's read amplification: segment files read
// per store GET or PUT (each makes one engine lookup). With the key
// filters doing their job it sits near the segment-resident hit share,
// well under 1; it climbing toward the segment count means they are
// not.
func (n NodeStatus) ProbesPerLookup() float64 {
	if n.Gets+n.Puts == 0 {
		return 0
	}
	return float64(n.SegmentProbes) / float64(n.Gets+n.Puts)
}

// Poller scrapes a set of telemetry endpoints. The zero value is
// usable: it polls with a 2-second timeout and pulls up to 64 trace
// events per node.
type Poller struct {
	Client     *http.Client
	TraceLimit int
}

func (p *Poller) client() *http.Client {
	if p.Client != nil {
		return p.Client
	}
	return &http.Client{Timeout: 2 * time.Second}
}

func (p *Poller) traceLimit() int {
	if p.TraceLimit > 0 {
		return p.TraceLimit
	}
	return 64
}

// baseURL normalizes a member address ("host:port" or a full URL) into
// an http base URL.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}

// Poll scrapes every node concurrently and returns one status per
// node, in input order.
func (p *Poller) Poll(addrs []string) []NodeStatus {
	out := make([]NodeStatus, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = p.PollNode(addr)
		}()
	}
	wg.Wait()
	return out
}

// PollNode scrapes one node's /metrics and /debug/trace.
func (p *Poller) PollNode(addr string) NodeStatus {
	st := NodeStatus{Addr: addr}
	base := baseURL(addr)

	resp, err := p.client().Get(base + "/metrics")
	if err != nil {
		st.Err = err
		return st
	}
	m, err := ParseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		st.Err = fmt.Errorf("parse metrics: %w", err)
		return st
	}
	st.Gets = int64(m.Sum("speed_store_gets_total"))
	st.Hits = int64(m.Sum("speed_store_hits_total"))
	st.Puts = int64(m.Sum("speed_store_puts_total"))
	st.Entries = int64(m.Sum("speed_store_entries"))
	st.BlobBytes = int64(m.Sum("speed_store_blob_bytes"))
	st.SegmentProbes = int64(m.Sum("speed_store_engine_segment_probes_total"))
	st.CompactionDebt = int64(m.Sum("speed_store_engine_compaction_debt_bytes"))
	st.ActiveConns = int64(m.Sum("speed_server_active_connections"))
	st.AuthFailures = int64(m.Sum("speed_wire_auth_failures_total"))
	st.AuthFailBytes = int64(m.Sum("speed_wire_auth_fail_bytes_total"))
	st.WireIn = int64(m.Sum("speed_server_wire_bytes_in_total"))
	st.WireOut = int64(m.Sum("speed_server_wire_bytes_out_total"))
	st.Failovers = int64(m.Sum("speed_cluster_failovers_total"))
	st.ReadRepairs = int64(m.Sum("speed_cluster_read_repairs_total"))
	if p99, ok := m.Quantile("speed_server_request_seconds", 0.99); ok {
		st.P99 = time.Duration(p99 * float64(time.Second))
	} else if p99, ok := m.Quantile("speed_execute_seconds", 0.99); ok {
		// A client-side endpoint (runtime registry) has no server
		// histogram; fall back to end-to-end Execute latency.
		st.P99 = time.Duration(p99 * float64(time.Second))
	}

	dump, err := p.pollTrace(base)
	if err != nil {
		st.Err = fmt.Errorf("trace: %w", err)
		return st
	}
	st.TraceTotal = dump.Total
	st.Events = dump.Events
	if st.Addr == "" {
		st.Addr = dump.Node
	}
	return st
}

// pollTrace fetches one node's recent trace events.
func (p *Poller) pollTrace(base string) (telemetry.TraceDump, error) {
	var dump telemetry.TraceDump
	resp, err := p.client().Get(fmt.Sprintf("%s/debug/trace?limit=%d", base, p.traceLimit()))
	if err != nil {
		return dump, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return dump, err
	}
	return dump, nil
}
