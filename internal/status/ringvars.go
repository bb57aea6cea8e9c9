package status

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"ring/internal/core"
	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/replog"
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

func (s *Server) handleRingvars(url.Values) response {
	var rv Ringvars
	s.runner.Inspect(func(n *core.Node) {
		rv.NodeID = n.ID()
		rv.Node = n.MetricsSnapshot()
	})
	rv.Process = processVars()
	return jsonResponse(rv)
}

// goHeapVars maps the process vars that describe the Go heap to the
// runtime/metrics samples behind them: what the collector counts as
// live, the heap size it lets the process grow to before the next
// cycle, and how many cycles have run. Resident memory tracks the goal,
// not the live bytes, which is why all three are worth seeing.
var goHeapVars = [...][2]string{
	{"go.heap_live_bytes", "/gc/heap/live:bytes"},
	{"go.heap_goal_bytes", "/gc/heap/goal:bytes"},
	{"go.gc_cycles", "/gc/cycles/total:gc-cycles"},
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
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return rv, err
	}
	defer c.Close()
	// HTTP/1.0: the reply is neither chunked nor kept alive, whichever
	// server answers, so the document is what follows the blank line.
	if _, err := fmt.Fprintf(c, "GET /debug/ringvars HTTP/1.0\r\nHost: %s\r\n\r\n", addr); err != nil {
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

// ClusterStats is the cluster-wide aggregation of per-node ringvars,
// what `ringctl stats` renders.
type ClusterStats struct {
	Nodes           int
	Events          uint64
	MsgsOut         uint64
	PacketsOut      uint64
	RecoveryBacklog int64
	Stats           core.Stats
	Memgests        map[proto.MemgestID]core.MemgestOpCounts
	CommitRep       metrics.HistSnapshot
	CommitSRS       metrics.HistSnapshot
	// MovesAborted and MovesReplanned sum the move windows closed by the
	// timeout and relaunched by a configuration change.
	MovesAborted   uint64
	MovesReplanned uint64
	// WritesAwaitingQuorum sums core.writes_awaiting_quorum: coordinated
	// writes whose redundancy acks are owed right now.
	WritesAwaitingQuorum int64
	// ShardsRecovering, ShardsDegraded and RecoveryReasks sum
	// core.shards_recovering, core.shards_degraded and
	// core.recovery_reasks: shards refusing requests until their metadata
	// is in, shards fetching lost bytes on demand, and recovery asks that
	// had to be repeated.
	ShardsRecovering, ShardsDegraded int64
	RecoveryReasks                   uint64
	// ShardsMoved and ConfigRepushes sum, over the nodes that have led,
	// the placement slots configuration changes reassigned and the
	// configurations sent a second time.
	ShardsMoved    uint64
	ConfigRepushes uint64
	// RunnerGoroutines sums core.runner_goroutines across the scraped
	// processes: the runner event loops actually executing — one per
	// (node, group) pair under memgest-group sharding.
	RunnerGoroutines int64
	// GroupQueueDepth sums core.group.<g>.queue_depth per group: the
	// instantaneous inbox backlog of each group's runners.
	GroupQueueDepth map[int]int64
	// HeapLive, HeapGoal and GCCycles sum go.heap_live_bytes,
	// go.heap_goal_bytes and go.gc_cycles across the scraped processes.
	HeapLive, HeapGoal, GCCycles int64
	// ArenaBacked, ArenaPooled, MetaBacked, RSSAnon, RSSFile and RSSPeak
	// sum process.arena_bytes_backed, process.arena_bytes_pooled,
	// process.meta_bytes_backed, process.rss_anon_bytes,
	// process.rss_file_bytes and process.rss_peak_bytes the same way;
	// MetaEntries sums the nodes' meta_entries.
	ArenaBacked, ArenaPooled, MetaBacked, RSSAnon, RSSFile, RSSPeak int64
	MetaEntries                                                     uint64
	// Durable sums the durable tiers of the nodes that have one (nil when
	// none does); Failed then means some node's is in its sticky-error
	// state.
	Durable *replog.Stats
}

// Aggregate folds per-node ringvars into cluster totals.
func Aggregate(nodes []Ringvars) ClusterStats {
	cs := ClusterStats{
		Memgests:        make(map[proto.MemgestID]core.MemgestOpCounts),
		GroupQueueDepth: make(map[int]int64),
	}
	for _, rv := range nodes {
		cs.Nodes++
		n := rv.Node
		cs.Events += n.Events
		cs.MsgsOut += n.MsgsOut
		cs.PacketsOut += n.PacketsOut
		cs.RecoveryBacklog += n.RecoveryBacklog
		cs.MovesAborted += n.MovesAborted
		cs.MovesReplanned += n.MovesReplanned
		cs.WritesAwaitingQuorum += n.WritesAwaitingQuorum
		cs.ShardsRecovering += n.ShardsRecovering
		cs.ShardsDegraded += n.ShardsDegraded
		cs.RecoveryReasks += n.RecoveryReasks
		cs.ShardsMoved += n.ShardsMoved
		cs.ConfigRepushes += n.ConfigRepushes
		cs.MetaEntries += n.MetaEntries
		addStats(&cs.Stats, n.Stats)
		for id, c := range n.Memgests {
			agg := cs.Memgests[id]
			agg.Add(c)
			cs.Memgests[id] = agg
		}
		cs.CommitRep = cs.CommitRep.Merge(n.CommitRep)
		cs.CommitSRS = cs.CommitSRS.Merge(n.CommitSRS)
		if n.Durable != nil {
			if cs.Durable == nil {
				cs.Durable = new(replog.Stats)
			}
			addDurable(cs.Durable, n.Durable)
		}
		for name, v := range rv.Process {
			iv, ok := processInt64(v)
			if !ok {
				continue
			}
			switch name {
			case "core.runner_goroutines":
				cs.RunnerGoroutines += iv
			case "go.heap_live_bytes":
				cs.HeapLive += iv
			case "go.heap_goal_bytes":
				cs.HeapGoal += iv
			case "go.gc_cycles":
				cs.GCCycles += iv
			case "process.arena_bytes_backed":
				cs.ArenaBacked += iv
			case "process.arena_bytes_pooled":
				cs.ArenaPooled += iv
			case "process.meta_bytes_backed":
				cs.MetaBacked += iv
			case "process.rss_anon_bytes":
				cs.RSSAnon += iv
			case "process.rss_file_bytes":
				cs.RSSFile += iv
			case "process.rss_peak_bytes":
				cs.RSSPeak += iv
			default:
				if g, ok := groupOfQueueGauge(name); ok {
					cs.GroupQueueDepth[g] += iv
				}
			}
		}
	}
	return cs
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

func addStats(dst *core.Stats, s core.Stats) {
	dst.Puts += s.Puts
	dst.Gets += s.Gets
	dst.Deletes += s.Deletes
	dst.Moves += s.Moves
	dst.Commits += s.Commits
	dst.ParkedGets += s.ParkedGets
	dst.ParityUpdates += s.ParityUpdates
	dst.RepAppends += s.RepAppends
	dst.BlocksRecovered += s.BlocksRecovered
	dst.MetaRecovs += s.MetaRecovs
	dst.BytesParityXor += s.BytesParityXor
	dst.BytesWritten += s.BytesWritten
	dst.BytesDecoded += s.BytesDecoded
	dst.BytesMetaInstalled += s.BytesMetaInstalled
}

func addDurable(dst, s *replog.Stats) {
	dst.Appends += s.Appends
	dst.AppendsSynced += s.AppendsSynced
	dst.Syncs += s.Syncs
	dst.SyncRecords += s.SyncRecords
	dst.SyncAcks += s.SyncAcks
	dst.Fsync = dst.Fsync.Merge(s.Fsync)
	dst.WALBytes += s.WALBytes
	dst.WALSealed += s.WALSealed
	dst.WALPruned += s.WALPruned
	dst.Checkpoints += s.Checkpoints
	dst.Checkpoint = dst.Checkpoint.Merge(s.Checkpoint)
	dst.BitcaskFsyncs += s.BitcaskFsyncs
	dst.LiveKeys += s.LiveKeys
	dst.DeadRecords += s.DeadRecords
	dst.Unresolved += s.Unresolved
	dst.WALSegments += s.WALSegments
	dst.DataFiles += s.DataFiles
	dst.Failed = dst.Failed || s.Failed
}

// RenderStats writes the `ringctl stats` text view of one aggregation.
func RenderStats(w io.Writer, cs ClusterStats) {
	fmt.Fprintf(w, "nodes=%d events=%d msgs_out=%d packets_out=%d recovery_backlog=%d\n",
		cs.Nodes, cs.Events, cs.MsgsOut, cs.PacketsOut, cs.RecoveryBacklog)
	fmt.Fprintf(w, "runners: goroutines=%d", cs.RunnerGoroutines)
	gs := make([]int, 0, len(cs.GroupQueueDepth))
	for g := range cs.GroupQueueDepth {
		gs = append(gs, g)
	}
	sort.Ints(gs)
	for _, g := range gs {
		fmt.Fprintf(w, " group%d_queue=%d", g, cs.GroupQueueDepth[g])
	}
	fmt.Fprintln(w)
	st := cs.Stats
	fmt.Fprintf(w, "ops: puts=%d gets=%d deletes=%d moves=%d moves_aborted=%d moves_replanned=%d commits=%d parked_gets=%d writes_awaiting_quorum=%d shards_recovering=%d shards_degraded=%d recovery_reasks=%d\n",
		st.Puts, st.Gets, st.Deletes, st.Moves, cs.MovesAborted, cs.MovesReplanned, st.Commits, st.ParkedGets, cs.WritesAwaitingQuorum,
		cs.ShardsRecovering, cs.ShardsDegraded, cs.RecoveryReasks)
	fmt.Fprintf(w, "config: shards_moved=%d config_repushes=%d\n", cs.ShardsMoved, cs.ConfigRepushes)
	ids := make([]proto.MemgestID, 0, len(cs.Memgests))
	for id := range cs.Memgests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var mem core.MemgestOpCounts
	for _, id := range ids {
		c := cs.Memgests[id]
		fmt.Fprintf(w, "memgest %d: puts=%d gets=%d deletes=%d moves=%d commits=%d\n",
			id, c.Puts, c.Gets, c.Deletes, c.Moves, c.Commits)
		mem.Add(c)
	}
	fmt.Fprintf(w, "memory: block_used=%d block_backed=%d parity_backed=%d value_used=%d value_backed=%d slots_relocated=%d chunks_released=%d arena_backed=%d arena_pooled=%d meta_bytes=%d meta_backed=%d meta_entries=%d heap_live=%d heap_goal=%d gc_cycles=%d rss_anon=%d rss_file=%d rss_peak=%d\n",
		mem.BlockBytesUsed, mem.BlockBytesBacked, mem.ParityBytesBacked, mem.ValueBytesUsed, mem.ValueBytesBacked,
		mem.ValueSlotsRelocated, mem.ValueChunksReleased,
		cs.ArenaBacked, cs.ArenaPooled, mem.MetaBytes, cs.MetaBacked, cs.MetaEntries, cs.HeapLive, cs.HeapGoal, cs.GCCycles, cs.RSSAnon, cs.RSSFile, cs.RSSPeak)
	if d := cs.Durable; d != nil {
		// Per group commit: the WAL records it made durable and the
		// acknowledgements it released.
		per := func(n uint64) float64 { return float64(n) / float64(max(d.Syncs, 1)) }
		fmt.Fprintf(w, "durable: wal_fsyncs=%d fsync_p50<=%s fsync_p99<=%s records/sync=%.1f acks/sync=%.1f wal_bytes=%d sealed=%d pruned=%d checkpoints=%d checkpoint_p99<=%s bitcask_fsyncs=%d live=%d dead=%d unresolved=%d failed=%v\n",
			d.Syncs, time.Duration(d.Fsync.Quantile(0.5)), time.Duration(d.Fsync.Quantile(0.99)), per(d.SyncRecords), per(d.SyncAcks),
			d.WALBytes, d.WALSealed, d.WALPruned, d.Checkpoints, time.Duration(d.Checkpoint.Quantile(0.99)),
			d.BitcaskFsyncs, d.LiveKeys, d.DeadRecords, d.Unresolved, d.Failed)
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
