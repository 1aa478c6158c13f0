package fleet

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// RenderStatus writes the per-node fleet table: one row per polled
// member with its hit rate, p99, traffic, the log engine's read
// amplification (segment files read per GET or PUT) and compaction
// debt, and failure counters.
func RenderStatus(w io.Writer, sts []NodeStatus) {
	fmt.Fprintf(w, "%-28s %8s %9s %9s %8s %9s %9s %9s %9s %9s\n",
		"NODE", "HIT%", "P99", "GETS", "PUTS", "ENTRIES", "PROBE/OP", "DEBT", "AUTHFAIL", "FAILOVER")
	for _, st := range sts {
		if st.Err != nil {
			fmt.Fprintf(w, "%-28s DOWN (%v)\n", st.Addr, st.Err)
			continue
		}
		fmt.Fprintf(w, "%-28s %7.1f%% %9s %9d %8d %9d %9.2f %9s %9d %9d\n",
			st.Addr, st.HitRate()*100, fmtDur(st.P99),
			st.Gets, st.Puts, st.Entries, st.ProbesPerLookup(), fmtBytes(st.CompactionDebt),
			st.AuthFailures, st.Failovers)
	}
}

// RenderTraces writes the top slowest assembled traces as indented
// span trees.
func RenderTraces(w io.Writer, traces []*Trace, top int) {
	if top <= 0 || top > len(traces) {
		top = len(traces)
	}
	if top == 0 {
		fmt.Fprintln(w, "no assembled traces yet (is trace sampling enabled?)")
		return
	}
	fmt.Fprintf(w, "slowest traces (%d of %d assembled):\n", top, len(traces))
	for _, t := range traces[:top] {
		state := "complete"
		if !t.Complete() {
			state = fmt.Sprintf("partial, %d orphan spans", len(t.Orphans))
		}
		fmt.Fprintf(w, "\ntrace %s  total=%s  spans=%d  %s\n",
			t.ID, fmtDur(t.Total()), t.Spans, state)
		t.Walk(func(depth int, s *Span) {
			fmt.Fprintf(w, "  %s%s\n", strings.Repeat("  ", depth), spanLine(s))
		})
	}
}

// spanLine formats one span for the tree view.
func spanLine(s *Span) string {
	ev := s.Event
	var b strings.Builder
	b.WriteString(ev.Name)
	if ev.ID != "" {
		fmt.Fprintf(&b, " %s", ev.ID)
	}
	fmt.Fprintf(&b, "  %s", fmtDur(time.Duration(ev.TotalNS)))
	switch {
	case ev.Err != "":
		fmt.Fprintf(&b, "  err=%s", ev.Err)
	case ev.Outcome != "":
		fmt.Fprintf(&b, "  %s", ev.Outcome)
	}
	if ev.Node != "" {
		fmt.Fprintf(&b, "  @%s", ev.Node)
	}
	return b.String()
}

// fmtBytes renders a byte count in binary units, "-" when zero.
func fmtBytes(n int64) string {
	switch {
	case n == 0:
		return "-"
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	}
}

// fmtDur renders a duration at ~3 significant figures, "-" when zero.
func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d < time.Microsecond:
		return d.String()
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(time.Second))
	}
}
