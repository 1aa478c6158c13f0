package cluster

import (
	"fmt"
	"strings"
	"testing"

	"speed/internal/telemetry"
)

// TestClusterTelemetry exercises the per-node series end to end: node
// gauges, routed-op counters, failovers and read repairs all land in
// the Prometheus rendering with node labels.
func TestClusterTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	env := newTestCluster(t, 3, Config{Replicas: 2, Telemetry: reg})

	tag := ctag("telemetry")
	if err := putOne(env.client, tag, csealed("telemetry"), false); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := getOne(env.client, tag); err != nil {
		t.Fatalf("Get: %v", err)
	}
	// Kill the tag's primary and fail over once so failover and
	// read-repair series move and the node gauge drops.
	primary := env.client.ring.owners(tag, 1)[0]
	env.nodes[primary].kill(t)
	if _, found, err := getOne(env.client, tag); err != nil || !found {
		t.Fatalf("failover Get = (found=%v, %v)", found, err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	downAddr := env.client.nodes[primary].addr
	for _, want := range []string{
		fmt.Sprintf(`speed_cluster_node_up{node=%q} 0`, downAddr),
		`speed_cluster_routed_total{node=`,
		`op="get"`,
		`op="put"`,
		fmt.Sprintf(`speed_cluster_failovers_total{node=%q}`, downAddr),
		`speed_cluster_read_repairs_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Exactly one node_up series per member.
	if got := strings.Count(out, "speed_cluster_node_up{"); got != len(env.nodes) {
		t.Errorf("node_up series count = %d, want %d", got, len(env.nodes))
	}
}
