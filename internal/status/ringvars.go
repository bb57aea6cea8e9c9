package status

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"reflect"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"ring/internal/core"
	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/transport"
)

// Ringvars is the expvar-style JSON document served at
// /debug/ringvars: the node's own instrumentation plus the
// process-wide registry (transport, client when present).
type Ringvars struct {
	NodeID  proto.NodeID         `json:"node_id"`
	Node    core.MetricsSnapshot `json:"node"`
	Process map[string]any       `json:"process"`
}

// TraceRow is one rendered trace entry served at /debug/trace.
type TraceRow struct {
	Seq     uint64          `json:"seq"`
	AtMS    float64         `json:"at_ms"`
	DurUS   float64         `json:"dur_us"`
	Op      string          `json:"op"`
	Key     string          `json:"key"`
	Memgest proto.MemgestID `json:"memgest"`
	Version uint64          `json:"version"`
	Status  string          `json:"status"`
}

func traceRow(e metrics.TraceEntry) TraceRow {
	return TraceRow{
		Seq:     e.Seq,
		AtMS:    float64(e.At) / float64(time.Millisecond),
		DurUS:   float64(e.Dur) / float64(time.Microsecond),
		Op:      e.Op.String(),
		Key:     e.KeyString(),
		Memgest: proto.MemgestID(e.Memgest),
		Version: e.Version,
		Status:  proto.Status(e.Status).String(),
	}
}

func (s *Server) ringvars() Ringvars {
	var rv Ringvars
	s.runner.Inspect(func(n *core.Node) {
		rv.NodeID = n.ID()
		rv.Node = n.MetricsSnapshot()
	})
	rv.Process = processVars()
	return rv
}

func (s *Server) handleRingvars(url.Values) response {
	return jsonResponse(s.ringvars())
}

// goHeapVars maps the process vars that describe the Go heap to the
// runtime/metrics samples behind them: what the collector counts as
// live, the heap size it lets the process grow to before the next
// cycle, how much of the heap a cycle has to scan for pointers (the
// metadata slabs and the stored bytes are none of it), how many cycles
// have run, and the bytes and objects allocated since the process
// started. Resident memory tracks the goal, not the
// live bytes, which is why all of them are worth seeing; two scrapes'
// allocations over the operations between them are a node's garbage
// per operation.
var goHeapVars = [...][2]string{
	{"go.heap_live_bytes", "/gc/heap/live:bytes"},
	{"go.heap_goal_bytes", "/gc/heap/goal:bytes"},
	{"go.heap_scan_bytes", "/gc/scan/heap:bytes"},
	{"go.gc_cycles", "/gc/cycles/total:gc-cycles"},
	{"go.alloc_bytes", "/gc/heap/allocs:bytes"},
	{"go.alloc_objects", "/gc/heap/allocs:objects"},
}

// addGoHeapVars reads goHeapVars into vars; it runs per scrape, nothing
// on any hot path feeds it.
func addGoHeapVars(vars map[string]any) {
	samples := make([]rtmetrics.Sample, len(goHeapVars))
	for i, v := range goHeapVars {
		samples[i].Name = v[1]
	}
	rtmetrics.Read(samples)
	for i, v := range goHeapVars {
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			vars[v[0]] = samples[i].Value.Uint64()
		}
	}
}

// processVars is the process section of /debug/ringvars: the registry
// every subsystem exports into (transport.*, core.*, gf.*,
// process.arena_bytes_backed, process.arena_bytes_pooled and
// process.meta_bytes_backed), the Go heap, and what the kernel says is
// resident.
func processVars() map[string]any {
	vars := metrics.Default.Snapshot()
	addGoHeapVars(vars)
	vars["process.rss_anon_bytes"], vars["process.rss_file_bytes"], vars["process.rss_peak_bytes"] = residentBytes()
	return vars
}

// residentBytes reads the process's resident anonymous memory (the Go
// heap, the arena, stacks), its file-backed memory (text, read-only
// data, shared libraries) and the most the two (and shared memory) have
// come to together from /proc/self/status; all are 0 where the kernel
// offers no such file.
func residentBytes() (anon, file, peak uint64) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, _ := strings.Cut(line, ":")
		var dst *uint64
		switch name {
		case "RssAnon":
			dst = &anon
		case "RssFile":
			dst = &file
		case "VmHWM":
			dst = &peak
		default:
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			kb, _ := strconv.ParseUint(f[0], 10, 64)
			*dst = kb << 10
		}
	}
	return anon, file, peak
}

func (s *Server) handleTrace(query url.Values) response {
	count := 0 // 0 = everything held
	if q := query.Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			return errorResponse(400, fmt.Sprintf("bad n parameter %q: want a non-negative integer", q))
		}
		count = v
	}
	var entries []metrics.TraceEntry
	s.runner.Inspect(func(n *core.Node) { entries = n.TraceLast(count) })
	rows := make([]TraceRow, len(entries))
	for i, e := range entries {
		rows[i] = traceRow(e)
	}
	return jsonResponse(rows)
}

// FetchRingvars GETs one node's /debug/ringvars document. addr is the
// node's HTTP listen address ("host:port").
func FetchRingvars(addr string) (Ringvars, error) {
	var rv Ringvars
	c, err := transport.Dial(addr)
	if err != nil {
		return rv, err
	}
	defer c.Close()
	// HTTP/1.0: the reply is neither chunked nor kept alive, whichever
	// server answers, so the document is what follows the blank line.
	req := fmt.Sprintf("GET /debug/ringvars HTTP/1.0\r\nHost: %s\r\n\r\n", addr)
	if err := c.Writev([][]byte{[]byte(req)}); err != nil {
		return rv, err
	}
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		return rv, fmt.Errorf("status: read reply from %s: %w", addr, err)
	}
	if _, st, _ := strings.Cut(strings.TrimSpace(line), " "); !strings.HasPrefix(st, "200") {
		return rv, fmt.Errorf("status: %s returned %s", addr, st)
	}
	for len(strings.TrimRight(line, "\r\n")) > 0 { // skip the header lines
		if line, err = br.ReadString('\n'); err != nil {
			return rv, fmt.Errorf("status: read reply from %s: %w", addr, err)
		}
	}
	if err := json.NewDecoder(br).Decode(&rv); err != nil {
		return rv, fmt.Errorf("status: decode ringvars from %s: %w", addr, err)
	}
	return rv, nil
}

// ClusterStats is the cluster-wide fold of per-node ringvars, what
// `ringctl stats` renders: the nodes' snapshots folded into one, and
// their numeric process vars summed by name.
type ClusterStats struct {
	Nodes int
	core.MetricsSnapshot
	Process map[string]int64
}

// Aggregate folds per-node ringvars into cluster totals.
func Aggregate(nodes []Ringvars) ClusterStats {
	cs := ClusterStats{Process: make(map[string]int64)}
	for _, rv := range nodes {
		cs.Nodes++
		fold(reflect.ValueOf(&cs.MetricsSnapshot).Elem(), reflect.ValueOf(rv.Node))
		for name, v := range rv.Process {
			if iv, ok := processInt64(v); ok {
				cs.Process[name] += iv
			}
		}
	}
	return cs
}

var histType = reflect.TypeOf(metrics.HistSnapshot{})

// fold adds src into dst, a settable value of the same type: integers
// add (a struct field tagged fold:"max" keeps the larger), bools OR,
// histograms merge, maps fold per key, and structs and pointers fold
// what they hold.
func fold(dst, src reflect.Value) {
	switch k := dst.Kind(); {
	case dst.Type() == histType:
		dst.Set(reflect.ValueOf(dst.Interface().(metrics.HistSnapshot).Merge(src.Interface().(metrics.HistSnapshot))))
	case dst.CanInt():
		dst.SetInt(dst.Int() + src.Int())
	case dst.CanUint():
		dst.SetUint(dst.Uint() + src.Uint())
	case k == reflect.Bool:
		dst.SetBool(dst.Bool() || src.Bool())
	case k == reflect.Pointer:
		if src.IsNil() {
			return
		}
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		fold(dst.Elem(), src.Elem())
	case k == reflect.Map:
		if dst.IsNil() {
			dst.Set(reflect.MakeMap(dst.Type()))
		}
		for it := src.MapRange(); it.Next(); {
			v := reflect.New(dst.Type().Elem()).Elem()
			if old := dst.MapIndex(it.Key()); old.IsValid() {
				v.Set(old)
			}
			fold(v, it.Value())
			dst.SetMapIndex(it.Key(), v)
		}
	case k == reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			if d, s := dst.Field(i), src.Field(i); dst.Type().Field(i).Tag.Get("fold") != "max" {
				fold(d, s)
			} else if s.Int() > d.Int() {
				d.SetInt(s.Int())
			}
		}
	default:
		panic("status: cannot fold a " + dst.Type().String())
	}
}

// processInt64 widens a process-registry value to int64. Values arrive
// as int64/uint64 from an in-process snapshot but as float64 after a
// JSON round trip through /debug/ringvars.
func processInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case uint64:
		return int64(x), true
	case float64:
		return int64(x), true
	}
	return 0, false
}

// groupOfQueueGauge parses "core.group.<g>.queue_depth" names.
func groupOfQueueGauge(name string) (int, bool) {
	const prefix, suffix = "core.group.", ".queue_depth"
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	g, err := strconv.Atoi(name[len(prefix) : len(name)-len(suffix)])
	if err != nil || g < 0 {
		return 0, false
	}
	return g, true
}

// opTotals sums the memgests' counters: the node totals are these sums,
// so a deleted memgest's counts leave them with its line.
func (cs ClusterStats) opTotals() core.MemgestOpCounts {
	var sum core.MemgestOpCounts
	for _, c := range cs.Memgests {
		fold(reflect.ValueOf(&sum).Elem(), reflect.ValueOf(c))
	}
	return sum
}

// RenderStats writes the `ringctl stats` text view of one aggregation.
func RenderStats(w io.Writer, cs ClusterStats) {
	fmt.Fprintf(w, "nodes=%d events=%d msgs_out=%d packets_out=%d recovery_backlog=%d\n",
		cs.Nodes, cs.Events, cs.MsgsOut, cs.PacketsOut, cs.RecoveryBacklog)
	p := cs.Process
	fmt.Fprintf(w, "runners: goroutines=%d", p["core.runner_goroutines"])
	groups := make(map[int]int64)
	for name, v := range p {
		if g, ok := groupOfQueueGauge(name); ok {
			groups[g] += v
		}
	}
	gs := make([]int, 0, len(groups))
	for g := range groups {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	for _, g := range gs {
		fmt.Fprintf(w, " group%d_queue=%d", g, groups[g])
	}
	fmt.Fprintln(w)
	mem := cs.opTotals()
	fmt.Fprintf(w, "ops: puts=%d gets=%d deletes=%d moves=%d moves_aborted=%d moves_replanned=%d commits=%d parked_gets=%d writes_awaiting_quorum=%d shards_recovering=%d shards_degraded=%d recovery_reasks=%d\n",
		mem.Puts, mem.Gets, mem.Deletes, mem.Moves, cs.MovesAborted, cs.MovesReplanned, mem.Commits, cs.Stats.ParkedGets, cs.WritesAwaitingQuorum,
		cs.ShardsRecovering, cs.ShardsDegraded, cs.RecoveryReasks)
	fmt.Fprintf(w, "config: shards_moved=%d config_repushes=%d\n", cs.ShardsMoved, cs.ConfigRepushes)
	ids := make([]proto.MemgestID, 0, len(cs.Memgests))
	for id := range cs.Memgests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c := cs.Memgests[id]
		fmt.Fprintf(w, "memgest %d: puts=%d gets=%d deletes=%d moves=%d commits=%d\n",
			id, c.Puts, c.Gets, c.Deletes, c.Moves, c.Commits)
	}
	fmt.Fprintf(w, "memory: block_used=%d block_backed=%d parity_backed=%d value_used=%d value_backed=%d slots_relocated=%d chunks_released=%d arena_backed=%d arena_pooled=%d meta_bytes=%d meta_backed=%d meta_entries=%d heap_live=%d heap_goal=%d heap_scan=%d gc_cycles=%d alloc_bytes=%d alloc_objects=%d rss_anon=%d rss_file=%d rss_peak=%d\n",
		mem.BlockBytesUsed, mem.BlockBytesBacked, mem.ParityBytesBacked, mem.ValueBytesUsed, mem.ValueBytesBacked,
		mem.ValueSlotsRelocated, mem.ValueChunksReleased,
		p["process.arena_bytes_backed"], p["process.arena_bytes_pooled"], mem.MetaBytes, p["process.meta_bytes_backed"], cs.MetaEntries,
		p["go.heap_live_bytes"], p["go.heap_goal_bytes"], p["go.heap_scan_bytes"], p["go.gc_cycles"],
		p["go.alloc_bytes"], p["go.alloc_objects"], p["process.rss_anon_bytes"], p["process.rss_file_bytes"], p["process.rss_peak_bytes"])
	if d := cs.Durable; d != nil {
		// Per group commit: the WAL records it made durable and the
		// acknowledgements it released.
		per := func(n uint64) float64 { return float64(n) / float64(max(d.Syncs, 1)) }
		fmt.Fprintf(w, "durable: wal_fsyncs=%d fsync_p50<=%s fsync_p99<=%s records/sync=%.1f acks/sync=%.1f wal_bytes=%d sealed=%d pruned=%d merges=%d merge_p99<=%s live=%d live_bytes=%d unresolved=%d failed=%v\n",
			d.Syncs, time.Duration(d.Fsync.Quantile(0.5)), time.Duration(d.Fsync.Quantile(0.99)), per(d.SyncRecords), per(d.SyncAcks),
			d.WALBytes, d.WALSealed, d.WALPruned, d.Merges, time.Duration(d.Merge.Quantile(0.99)),
			d.LiveRecords, d.LiveBytes, d.Unresolved, d.Failed)
	}
	renderHist(w, "commit latency REP", cs.CommitRep)
	renderHist(w, "commit latency SRS", cs.CommitSRS)
}

func renderHist(w io.Writer, name string, h metrics.HistSnapshot) {
	if h.Count == 0 {
		fmt.Fprintf(w, "%s: no samples\n", name)
		return
	}
	fmt.Fprintf(w, "%s: n=%d mean=%s p50<=%s p99<=%s\n", name, h.Count,
		time.Duration(h.Mean()), time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.99)))
}

// CollectStats fetches and aggregates ringvars from every address,
// reporting fetch failures without aborting the whole scrape.
func CollectStats(addrs []string) (ClusterStats, []error) {
	var nodes []Ringvars
	var errs []error
	for _, a := range addrs {
		rv, err := FetchRingvars(a)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		nodes = append(nodes, rv)
	}
	return Aggregate(nodes), errs
}

// WatchStats renders cluster stats every interval for rounds
// iterations (rounds <= 0 repeats until w errors — in practice,
// forever for a terminal). It is the engine behind
// `ringctl stats -watch`.
func WatchStats(w io.Writer, addrs []string, interval time.Duration, rounds int) error {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	for i := 0; rounds <= 0 || i < rounds; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cs, errs := CollectStats(addrs)
		if _, err := fmt.Fprintf(w, "--- %s (%d/%d nodes answered)\n",
			time.Now().Format("15:04:05"), cs.Nodes, len(addrs)); err != nil {
			return err
		}
		for _, e := range errs {
			fmt.Fprintf(w, "  scrape error: %v\n", e)
		}
		RenderStats(w, cs)
	}
	return nil
}
