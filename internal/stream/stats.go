package stream

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mobigate/internal/obs"
)

// InstanceStats is the runtime state of one composition member.
type InstanceStats struct {
	ID string
	// Def is the streamlet definition name ("" for ad-hoc instances).
	Def string
	// Composite marks nested streams reused as streamlets.
	Composite bool
	// State is the lifecycle state ("active", "paused", …); composites
	// report "composite".
	State string
	// Processed counts processMsg executions (recursive for composites).
	Processed uint64
	// Dropped counts emissions lost to full queues.
	Dropped uint64
	// QueuedIn sums messages waiting on the instance's input queues.
	QueuedIn int
	// Latency is the instance's process-latency distribution in seconds,
	// read from the shared metrics registry (the snapshot is re-expressed
	// on top of the observability plane rather than keeping private
	// timers). The series aggregates across sessions reusing the same
	// instance id.
	Latency obs.HistogramSnapshot
}

// ConnStats is one routing-table row with its channel occupancy.
type ConnStats struct {
	From    string
	To      string
	Channel string
	Queued  int
	Posted  uint64
	Fetched uint64
	Dropped uint64
}

// Stats is a point-in-time snapshot of a running stream, for operators and
// tooling.
type Stats struct {
	Name             string
	SessionID        string
	Reconfigurations uint64
	LastReconfig     ReconfigTiming
	Instances        []InstanceStats
	Connections      []ConnStats
}

// StatsSnapshot captures the stream's current state.
func (st *Stream) StatsSnapshot() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := Stats{
		Name:             st.name,
		SessionID:        st.sessionID,
		Reconfigurations: st.reconfigs.Load(),
		LastReconfig:     st.lastTiming,
	}
	ids := make([]string, 0, len(st.nodes))
	for id := range st.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := st.nodes[id]
		is := InstanceStats{ID: id, Processed: n.processed(), Dropped: n.dropped()}
		if d := st.decls[id]; d != nil {
			is.Def = d.Name
		}
		for _, q := range n.ins() {
			is.QueuedIn += q.Len()
		}
		switch nn := n.(type) {
		case nativeNode:
			is.State = nn.s.State().String()
			is.Latency = nn.s.ProcessLatency()
		case compositeNode:
			is.Composite = true
			is.State = "composite"
		}
		out.Instances = append(out.Instances, is)
	}
	for _, c := range st.conns {
		posted, fetched, dropped := c.q.Stats()
		out.Connections = append(out.Connections, ConnStats{
			From:    c.from.String(),
			To:      c.to.String(),
			Channel: c.q.Name(),
			Queued:  c.q.Len(),
			Posted:  posted,
			Fetched: fetched,
			Dropped: dropped,
		})
	}
	return out
}

// String renders the snapshot as an operator-readable table.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream %s (session %s): %d reconfigurations", s.Name, s.SessionID, s.Reconfigurations)
	if s.Reconfigurations > 0 {
		fmt.Fprintf(&b, ", last took %v", s.LastReconfig.Total().Round(time.Microsecond))
	}
	b.WriteByte('\n')
	for _, i := range s.Instances {
		def := i.Def
		if def == "" {
			def = "-"
		}
		fmt.Fprintf(&b, "  %-12s %-16s %-9s processed=%-6d dropped=%-3d queuedIn=%d",
			i.ID, "("+def+")", i.State, i.Processed, i.Dropped, i.QueuedIn)
		if i.Latency.Count > 0 {
			fmt.Fprintf(&b, " p95=%v", time.Duration(i.Latency.P95*float64(time.Second)).Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}
	for _, c := range s.Connections {
		fmt.Fprintf(&b, "  %s -> %s via %s: queued=%d posted=%d fetched=%d dropped=%d\n",
			c.From, c.To, c.Channel, c.Queued, c.Posted, c.Fetched, c.Dropped)
	}
	return b.String()
}
