// Package status exposes a node's operational state over HTTP for
// monitoring: a JSON snapshot at /status, Prometheus-style text
// metrics at /metrics, the full instrumentation document at
// /debug/ringvars (per-memgest op counters, commit-latency
// histograms, transport/client counters), and the most recent
// operations at /debug/trace, and the Go profiles at /debug/pprof/.
// ringd serves it with the -http flag; `ringctl stats` scrapes and
// aggregates it cluster-wide. The server (serve.go) and the one client
// (FetchRingvars) are the package's own: the port's whole traffic is
// bodiless GETs, and importing net/http would link a TLS stack and an
// HTTP/2 implementation into every node to answer them.
package status

import (
	"bytes"
	"fmt"
	"net/url"

	"ring/internal/core"
	"ring/internal/proto"
)

// Snapshot is the JSON document served at /status.
type Snapshot struct {
	NodeID   proto.NodeID    `json:"node_id"`
	Epoch    proto.Epoch     `json:"epoch"`
	Leader   proto.NodeID    `json:"leader"`
	IsLeader bool            `json:"is_leader"`
	Serving  bool            `json:"serving"`
	Shards   []uint32        `json:"shards"`
	Memgests []MemgestStatus `json:"memgests"`
	Stats    core.Stats      `json:"stats"`
}

// MemgestStatus summarizes one memgest from this node's perspective.
type MemgestStatus struct {
	ID     proto.MemgestID `json:"id"`
	Scheme string          `json:"scheme"`
	Label  string          `json:"label"`
}

// Collect builds a snapshot from a quiesced node.
func Collect(n *core.Node) Snapshot {
	cfg := n.Config()
	s := Snapshot{
		NodeID:   n.ID(),
		Epoch:    cfg.Epoch,
		Leader:   cfg.Leader,
		IsLeader: n.IsLeader(),
		Serving:  n.Serving(),
		Stats:    n.Stats,
	}
	for i, c := range cfg.Coords {
		if c == n.ID() {
			s.Shards = append(s.Shards, uint32(i))
		}
	}
	for _, m := range cfg.Memgests {
		s.Memgests = append(s.Memgests, MemgestStatus{
			ID: m.ID, Scheme: m.Scheme.String(), Label: m.Scheme.Label(),
		})
	}
	return s
}

func (s *Server) snapshot() Snapshot {
	var snap Snapshot
	s.runner.Inspect(func(n *core.Node) { snap = Collect(n) })
	return snap
}

func (s *Server) handleStatus(url.Values) response {
	return jsonResponse(s.snapshot())
}

func (s *Server) handleMetrics(url.Values) response {
	var snap Snapshot
	var ms core.MetricsSnapshot
	s.runner.Inspect(func(n *core.Node) { snap, ms = Collect(n), n.MetricsSnapshot() })
	w := new(bytes.Buffer)
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	fmt.Fprintf(w, "ring_node_id %d\n", snap.NodeID)
	fmt.Fprintf(w, "ring_epoch %d\n", snap.Epoch)
	fmt.Fprintf(w, "ring_is_leader %d\n", b(snap.IsLeader))
	fmt.Fprintf(w, "ring_serving %d\n", b(snap.Serving))
	fmt.Fprintf(w, "ring_shards_owned %d\n", len(snap.Shards))
	fmt.Fprintf(w, "ring_memgests %d\n", len(snap.Memgests))
	st := snap.Stats
	fmt.Fprintf(w, "ring_puts_total %d\n", st.Puts)
	fmt.Fprintf(w, "ring_gets_total %d\n", st.Gets)
	fmt.Fprintf(w, "ring_deletes_total %d\n", st.Deletes)
	fmt.Fprintf(w, "ring_moves_total %d\n", st.Moves)
	fmt.Fprintf(w, "ring_commits_total %d\n", st.Commits)
	fmt.Fprintf(w, "ring_parked_gets_total %d\n", st.ParkedGets)
	fmt.Fprintf(w, "ring_core_writes_awaiting_quorum %d\n", ms.WritesAwaitingQuorum)
	fmt.Fprintf(w, "ring_core_shards_recovering %d\n", ms.ShardsRecovering)
	fmt.Fprintf(w, "ring_core_shards_degraded %d\n", ms.ShardsDegraded)
	fmt.Fprintf(w, "ring_core_recovery_reasks %d\n", ms.RecoveryReasks)
	fmt.Fprintf(w, "ring_parity_updates_total %d\n", st.ParityUpdates)
	fmt.Fprintf(w, "ring_rep_appends_total %d\n", st.RepAppends)
	fmt.Fprintf(w, "ring_blocks_recovered_total %d\n", st.BlocksRecovered)
	fmt.Fprintf(w, "ring_meta_recoveries_total %d\n", st.MetaRecovs)
	fmt.Fprintf(w, "ring_bytes_written_total %d\n", st.BytesWritten)
	fmt.Fprintf(w, "ring_bytes_parity_xor_total %d\n", st.BytesParityXor)
	fmt.Fprintf(w, "ring_bytes_decoded_total %d\n", st.BytesDecoded)
	// Memory, as /debug/ringvars attributes it: stored bytes per memgest,
	// the entries that index them, and the process around both.
	for _, m := range snap.Memgests {
		c := ms.Memgests[m.ID]
		fmt.Fprintf(w, "ring_store_block_bytes_used{memgest=\"%d\"} %d\n", m.ID, c.BlockBytesUsed)
		fmt.Fprintf(w, "ring_store_block_bytes_backed{memgest=\"%d\"} %d\n", m.ID, c.BlockBytesBacked)
		fmt.Fprintf(w, "ring_store_parity_bytes_backed{memgest=\"%d\"} %d\n", m.ID, c.ParityBytesBacked)
		fmt.Fprintf(w, "ring_store_value_bytes_used{memgest=\"%d\"} %d\n", m.ID, c.ValueBytesUsed)
		fmt.Fprintf(w, "ring_store_value_bytes_backed{memgest=\"%d\"} %d\n", m.ID, c.ValueBytesBacked)
		fmt.Fprintf(w, "ring_store_value_slots_relocated_total{memgest=\"%d\"} %d\n", m.ID, c.ValueSlotsRelocated)
		fmt.Fprintf(w, "ring_store_value_chunks_released_total{memgest=\"%d\"} %d\n", m.ID, c.ValueChunksReleased)
		fmt.Fprintf(w, "ring_store_meta_bytes{memgest=\"%d\"} %d\n", m.ID, c.MetaBytes)
	}
	fmt.Fprintf(w, "ring_meta_entries %d\n", ms.MetaEntries)
	pv := processVars()
	for _, name := range []string{"arena_bytes_backed", "arena_bytes_pooled", "meta_bytes_backed", "rss_anon_bytes", "rss_file_bytes", "rss_peak_bytes"} {
		fmt.Fprintf(w, "ring_process_%s %v\n", name, pv["process."+name])
	}
	return response{code: 200, ctype: "text/plain; version=0.0.4", body: w.Bytes()}
}
