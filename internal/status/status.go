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
	"fmt"
	"net/url"
	"reflect"
	"strings"

	"ring/internal/core"
	"ring/internal/metrics"
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

// handleMetrics renders the /debug/ringvars document as Prometheus
// text, one line per numeric leaf: ring_ and the leaf's JSON path below
// the node and process sections, each character a metric name cannot
// hold turned into _ (node.core.shards_degraded is
// ring_core_shards_degraded, process.go.gc_cycles ring_go_gc_cycles). A
// map keyed by number adds no segment but a label named for it, without
// its plural s (ring_puts{memgest="1"}); a histogram is its _count, its
// _sum in nanoseconds and cumulative _bucket{le=} lines; a bool is 0 or 1.
func (s *Server) handleMetrics(url.Values) response {
	rv := s.ringvars()
	b := fmt.Appendf(nil, "ring_node_id %d\n", rv.NodeID)
	b = appendMetrics(b, "ring", "", reflect.ValueOf(rv.Node))
	b = appendMetrics(b, "ring", "", reflect.ValueOf(rv.Process))
	return response{code: 200, ctype: "text/plain; version=0.0.4", body: b}
}

// appendMetrics writes the lines of v, whose name and labels (each
// followed by a comma) its path gave it; see handleMetrics.
func appendMetrics(b []byte, name, labels string, v reflect.Value) []byte {
	braced := ""
	if labels != "" {
		braced = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	switch k := v.Kind(); {
	case k == reflect.Interface || k == reflect.Pointer:
		if !v.IsNil() {
			b = appendMetrics(b, name, labels, v.Elem())
		}
	case k == reflect.Bool:
		n := 0
		if v.Bool() {
			n = 1
		}
		b = fmt.Appendf(b, "%s%s %d\n", name, braced, n)
	case v.CanInt() || v.CanUint() || v.CanFloat():
		b = fmt.Appendf(b, "%s%s %v\n", name, braced, v)
	case v.Type() == histType:
		h := v.Interface().(metrics.HistSnapshot)
		var n uint64
		for _, bk := range h.Buckets {
			n += bk.Count
			b = fmt.Appendf(b, "%s_bucket{%sle=\"%d\"} %d\n", name, labels, bk.Le, n)
		}
		b = fmt.Appendf(b, "%s_bucket{%sle=\"+Inf\"} %d\n%s_sum%s %d\n%s_count%s %d\n",
			name, labels, h.Count, name, braced, h.SumNS, name, braced, h.Count)
	case k == reflect.Struct || k == reflect.Map:
		for _, m := range members(v) {
			if m.val.Kind() == reflect.Map && m.val.Type().Key().Kind() != reflect.String {
				for _, e := range members(m.val) {
					b = appendMetrics(b, name, fmt.Sprintf("%s%s=%q,", labels, strings.TrimSuffix(m.key, "s"), e.key), e.val)
				}
				continue
			}
			b = appendMetrics(b, name+"_"+strings.Map(metricRune, m.key), labels, m.val)
		}
	}
	return b
}

// metricRune keeps what a Prometheus metric name may hold and turns
// anything else into _.
func metricRune(r rune) rune {
	if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
		return r
	}
	return '_'
}
