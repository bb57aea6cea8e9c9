// Package status exposes a node's operational state over HTTP for
// monitoring: a JSON snapshot at /status, Prometheus-style text
// metrics at /metrics, the full instrumentation document at
// /debug/ringvars (per-memgest op counters, commit-latency
// histograms, transport/client counters), and the most recent
// operations at /debug/trace, and the Go profiles at /debug/pprof/.
// ringd serves it with the -http flag; `ringctl stats` scrapes and
// aggregates it cluster-wide.
package status

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

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

// Server serves /status and /metrics for one runner.
type Server struct {
	runner *core.Runner
	ln     net.Listener
	srv    *http.Server
}

// Serve starts the HTTP listener on addr (e.g. ":8080" or
// "127.0.0.1:0") and returns the server; Close stops it.
func Serve(r *core.Runner, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("status: listen %s: %w", addr, err)
	}
	s := &Server{runner: r, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/ringvars", s.handleRingvars)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the HTTP server.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) snapshot() Snapshot {
	var snap Snapshot
	s.runner.Inspect(func(n *core.Node) { snap = Collect(n) })
	return snap
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var snap Snapshot
	var ms core.MetricsSnapshot
	s.runner.Inspect(func(n *core.Node) { snap, ms = Collect(n), n.MetricsSnapshot() })
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
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
	}
	fmt.Fprintf(w, "ring_meta_entries %d\n", ms.MetaEntries)
	pv := processVars()
	for _, name := range []string{"arena_bytes_backed", "arena_bytes_pooled", "rss_anon_bytes", "rss_file_bytes"} {
		fmt.Fprintf(w, "ring_process_%s %v\n", name, pv["process."+name])
	}
}
