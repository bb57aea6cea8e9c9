package status

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
	"ring/internal/testutil"
)

// startObservedCluster boots a cluster with a status server on every
// node and returns the scrape addresses.
func startObservedCluster(t *testing.T, spec core.ClusterSpec) (*core.Cluster, []string) {
	t.Helper()
	cl, err := core.StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	var addrs []string
	for id := proto.NodeID(0); int(id) < len(cl.Runs); id++ {
		srv, err := Serve(cl.Runs[id], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return cl, addrs
}

// TestRingvarsAggregateExactCounts runs a scripted workload against a
// live cluster, scrapes /debug/ringvars from every node, and checks
// the aggregated counters reproduce the workload exactly — the
// contract that makes the observability layer trustworthy.
func TestRingvarsAggregateExactCounts(t *testing.T) {
	cl, addrs := startObservedCluster(t, core.ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests:    []proto.Scheme{proto.Rep(3, 3), proto.SRS(3, 2, 3)},
		Opts:        core.Options{SyncReplication: true},
		DataDir:     t.TempDir(),
		DurableOpts: replog.DurableOptions{Policy: replog.FsyncAlways},
	})

	c, err := client.Dial(cl.Fabric, []string{core.NodeAddr(0)}, client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The durable tier first, while its counters are still a function of
	// one key: N sequential puts to the Rep(3,3) memgest are N write-ahead
	// appends on the key's coordinator and on each of its two replicas
	// (nodes 3 and 4), every one of them fsynced before its PutReply or
	// RepAck left — so each of the three counts at least N WAL fsyncs and
	// exactly N appends made durable. (SyncReplication makes the put wait
	// for both RepAcks; under the majority quorum the replica that is not
	// waited for may take two appends in one batch and fsync them once.)
	// And no node has fsynced Bitcask: that waits for the first WAL
	// segment to seal.
	const durPuts = 8
	for i := 0; i < durPuts; i++ {
		if _, err := c.PutIn("dur", []byte("made durable"), 1); err != nil {
			t.Fatal(err)
		}
	}
	coord := cl.Cfg.Coords[cl.Cfg.ShardOf(store.KeyHash("dur"))]
	var rvs []Ringvars
	for _, a := range addrs {
		rv, err := FetchRingvars(a)
		if err != nil {
			t.Fatal(err)
		}
		rvs = append(rvs, rv)
	}
	for _, rv := range rvs {
		// The peak is read in the same pass as the two it bounds.
		anon, _ := processInt64(rv.Process["process.rss_anon_bytes"])
		file, _ := processInt64(rv.Process["process.rss_file_bytes"])
		if peak, ok := processInt64(rv.Process["process.rss_peak_bytes"]); !ok || peak < anon+file || runtime.GOOS == "linux" && peak == 0 {
			t.Fatalf("node %d: process.rss_peak_bytes=%d (present: %v), rss_anon_bytes=%d, rss_file_bytes=%d", rv.NodeID, peak, ok, anon, file)
		}
		d := rv.Node.Durable
		if d == nil || d.BitcaskFsyncs != 0 || d.Checkpoints != 0 || d.WALSealed != 0 || d.Failed {
			t.Fatalf("node %d before its first WAL segment sealed: %+v", rv.NodeID, d)
		}
		if id := rv.NodeID; id == coord || id == 3 || id == 4 {
			if d.Appends != durPuts || d.AppendsSynced != durPuts || d.Syncs < durPuts ||
				d.Fsync.Count != d.Syncs || d.SyncRecords < 2*durPuts || d.SyncAcks < durPuts || d.WALBytes == 0 {
				t.Fatalf("node %d after %d puts: %+v", id, durPuts, d)
			}
		} else if d.Appends != 0 {
			t.Fatalf("node %d holds no copy of the key but counts %d appends", rv.NodeID, d.Appends)
		}
	}

	// The scripted workload: 6 puts into the Rep memgest, 4 into the
	// SRS memgest, 5 gets, 1 delete from each memgest, then 3 moves from
	// the Rep memgest into the SRS one.
	for i := 0; i < 6; i++ {
		if _, err := c.PutIn(fmt.Sprintf("rep-%d", i), []byte("replicated"), 1); err != nil {
			t.Fatal(err)
		}
	}
	srsVal := []byte("erasure-coded-value")
	for i := 0; i < 4; i++ {
		if _, err := c.PutIn(fmt.Sprintf("srs-%d", i), srsVal, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Memory is as exact as the op counters: one put of V bytes to each
	// of N distinct SRS keys is N*V allocated block bytes summed over the
	// coordinators, all of them backed, with parity backed behind them —
	// and nothing in the Rep memgest, which has no blocks.
	mid, errs := CollectStats(addrs)
	if len(errs) != 0 {
		t.Fatalf("scrape errors: %v", errs)
	}
	if m := mid.Memgests[2]; m.BlockBytesUsed != uint64(4*len(srsVal)) || m.BlockBytesBacked < m.BlockBytesUsed || m.ParityBytesBacked == 0 {
		t.Fatalf("memgest 2 memory after 4 puts of %dB: %+v", len(srsVal), m)
	}
	if m := mid.Memgests[1]; m.BlockBytesUsed != 0 || m.BlockBytesBacked != 0 || m.ParityBytesBacked != 0 {
		t.Fatalf("Rep memgest reports block memory: %+v", m)
	}
	// The Rep side is as exact: three copies of the live version of each
	// of the seven Rep keys (every superseded "dur" version was purged on
	// the replicas before a later put's RepAppend reached them), held in
	// whole chunks, and none in the SRS memgest. And one metadata entry
	// per live version and copy: 3 per Rep key, and for an SRS key its
	// coordinator's and the two parity nodes'.
	repBytes := uint64(3 * (len("made durable") + 6*len("replicated")))
	if m := mid.Memgests[1]; m.ValueBytesUsed != repBytes || m.ValueBytesBacked < m.ValueBytesUsed || m.ValueBytesBacked%(64<<10) != 0 {
		t.Fatalf("memgest 1 holds %d value bytes in %d, want %d in whole chunks", m.ValueBytesUsed, m.ValueBytesBacked, repBytes)
	}
	if m := mid.Memgests[2]; m.ValueBytesUsed != 0 || m.ValueBytesBacked != 0 {
		t.Fatalf("SRS memgest reports Rep values: %+v", m)
	}
	if mid.MetaEntries != 3*(1+6)+3*4 {
		t.Fatalf("cluster holds %d metadata entries, want %d", mid.MetaEntries, 3*(1+6)+3*4)
	}
	// What those entries take is as exact: a slab slot each, and on each
	// of a key's three nodes — its coordinator, and nodes 3 and 4 as
	// replicas or parity nodes — the index of the key's shard holds the
	// key's bytes once and a hash index that started at 8 slots and
	// doubled whenever a key would have made it more than three quarters
	// full. Every memgest's share of that, added up, is all of it.
	perShard := map[int][]string{}
	for _, k := range []string{"dur", "rep-0", "rep-1", "rep-2", "rep-3", "rep-4", "rep-5", "srs-0", "srs-1", "srs-2", "srs-3"} {
		shard := cl.Cfg.ShardOf(store.KeyHash(k))
		perShard[shard] = append(perShard[shard], k)
	}
	metaBytes := mid.MetaEntries * uint64(store.EntrySize)
	for _, keys := range perShard {
		slots := 8
		for slots*3 < len(keys)*4 {
			slots *= 2
		}
		metaBytes += 3 * uint64(4*slots+len(strings.Join(keys, "")))
	}
	if got := mid.Memgests[1].MetaBytes + mid.Memgests[2].MetaBytes; got != metaBytes || mid.Memgests[1].MetaBytes <= mid.Memgests[2].MetaBytes {
		t.Fatalf("store.meta_bytes sums to %d + %d, want %d in all and more for the seven Rep keys than for the four SRS ones", mid.Memgests[1].MetaBytes, mid.Memgests[2].MetaBytes, metaBytes)
	}
	// Every node is in this process and reports the process's gauge: the
	// slabs, hash indexes and key chunks cut, which hold at least that.
	if mid.MetaBacked != int64(len(addrs))*int64(store.MetaBytesBacked()) || store.MetaBytesBacked() < metaBytes {
		t.Fatalf("process.meta_bytes_backed sums to %d over %d nodes of a process that backs %d, for %d bytes in use", mid.MetaBacked, len(addrs), store.MetaBytesBacked(), metaBytes)
	}
	// The process vars crossed the boundary: everything stored sits in
	// the arena, and on Linux the kernel's view of the process comes with it.
	if mid.ArenaBacked < int64(mid.Memgests[1].ValueBytesBacked) {
		t.Fatalf("process.arena_bytes_backed sums to %d, below the %d behind the Rep values alone", mid.ArenaBacked, mid.Memgests[1].ValueBytesBacked)
	}
	if runtime.GOOS == "linux" && (mid.RSSAnon <= 0 || mid.RSSFile <= 0) {
		t.Fatalf("process.rss_anon_bytes=%d process.rss_file_bytes=%d", mid.RSSAnon, mid.RSSFile)
	}
	// The Go heap vars crossed the boundary too (live bytes and cycles are
	// legitimately zero before the first collection; the goal never is).
	if mid.HeapGoal <= 0 {
		t.Fatalf("go heap vars: live=%d goal=%d cycles=%d", mid.HeapLive, mid.HeapGoal, mid.GCCycles)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.Get(fmt.Sprintf("rep-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("rep-0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("srs-0"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := c.Move(fmt.Sprintf("rep-%d", i), 2); err != nil {
			t.Fatal(err)
		}
	}

	cs, errs := CollectStats(addrs)
	if len(errs) != 0 {
		t.Fatalf("scrape errors: %v", errs)
	}
	if cs.Nodes != len(addrs) {
		t.Fatalf("aggregated %d of %d nodes", cs.Nodes, len(addrs))
	}
	// The runner gauge crossed the HTTP+JSON boundary: every scraped
	// document reports this process's runners, at least one per node.
	if cs.RunnerGoroutines < int64(len(addrs)) {
		t.Fatalf("RunnerGoroutines = %d, want >= %d", cs.RunnerGoroutines, len(addrs))
	}
	if cs.Stats.Puts != 10+durPuts || cs.Stats.Gets != 5 || cs.Stats.Deletes != 2 {
		t.Fatalf("cluster ops: puts=%d gets=%d deletes=%d", cs.Stats.Puts, cs.Stats.Gets, cs.Stats.Deletes)
	}
	// N client moves count exactly N, in the one move family.
	if cs.Stats.Moves != 3 || cs.MovesAborted != 0 || cs.MovesReplanned != 0 {
		t.Fatalf("cluster moves=%d aborted=%d replanned=%d, want 3/0/0", cs.Stats.Moves, cs.MovesAborted, cs.MovesReplanned)
	}
	// The configuration never changed and the fabric lost nothing: no
	// slot moved, and no configuration was sent twice.
	if cs.ShardsMoved != 0 || cs.ConfigRepushes != 0 {
		t.Fatalf("cluster shards_moved=%d config_repushes=%d, want 0/0", cs.ShardsMoved, cs.ConfigRepushes)
	}
	// Every op above was answered: no coordinated write still waits for
	// redundancy acks.
	if cs.WritesAwaitingQuorum != 0 {
		t.Fatalf("quiesced cluster reports %d writes awaiting quorum", cs.WritesAwaitingQuorum)
	}
	// Nothing failed: no shard recovers, none is degraded, no recovery
	// ask was ever sent, let alone repeated.
	if cs.ShardsRecovering != 0 || cs.ShardsDegraded != 0 || cs.RecoveryReasks != 0 || cs.RecoveryBacklog != 0 {
		t.Fatalf("quiesced cluster reports shards_recovering=%d shards_degraded=%d recovery_reasks=%d recovery_backlog=%d",
			cs.ShardsRecovering, cs.ShardsDegraded, cs.RecoveryReasks, cs.RecoveryBacklog)
	}
	if cs.Stats.Commits != 15+durPuts {
		t.Fatalf("cluster commits = %d, want %d", cs.Stats.Commits, 15+durPuts)
	}
	mg1, mg2 := cs.Memgests[1], cs.Memgests[2]
	if mg1.Puts != 6+durPuts || mg1.Gets != 5 || mg1.Deletes != 1 || mg1.Moves != 0 || mg1.Commits != 7+durPuts {
		t.Fatalf("memgest 1 counts: %+v", mg1)
	}
	// A move counts against the memgest it writes into.
	if mg2.Puts != 4 || mg2.Gets != 0 || mg2.Deletes != 1 || mg2.Moves != 3 || mg2.Commits != 8 {
		t.Fatalf("memgest 2 counts: %+v", mg2)
	}
	// Commit latency histograms split by scheme kind, one sample per
	// commit: 7 Rep (6 puts + 1 delete), 8 SRS (4 puts + 1 delete + 3
	// moves).
	if cs.CommitRep.Count != 7+durPuts || cs.CommitSRS.Count != 8 {
		t.Fatalf("commit latency samples: rep=%d srs=%d", cs.CommitRep.Count, cs.CommitSRS.Count)
	}
	var bucketSum uint64
	for _, b := range cs.CommitRep.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != cs.CommitRep.Count {
		t.Fatalf("rep histogram buckets sum to %d, count %d", bucketSum, cs.CommitRep.Count)
	}

	// The rendered view carries the same numbers.
	var buf bytes.Buffer
	RenderStats(&buf, cs)
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("ops: puts=%d gets=5 deletes=2 moves=3 moves_aborted=0 moves_replanned=0", 10+durPuts),
		" parked_gets=0 writes_awaiting_quorum=0 shards_recovering=0 shards_degraded=0 recovery_reasks=0\n",
		"config: shards_moved=0 config_repushes=0",
		fmt.Sprintf("memgest 1: puts=%d gets=5 deletes=1 moves=0", 6+durPuts),
		"memgest 2: puts=4 gets=0 deletes=1 moves=3",
		fmt.Sprintf("commit latency REP: n=%d", 7+durPuts),
		// One line for the durable tier, summed over the five nodes.
		fmt.Sprintf("durable: wal_fsyncs=%d fsync_p50<=", cs.Durable.Syncs),
		"bitcask_fsyncs=0 ",
		"failed=false",
		"commit latency SRS: n=8",
		// 3 of the 4 SRS puts survive the delete, plus the 3 moved values.
		fmt.Sprintf("memory: block_used=%d block_backed=", 3*len(srsVal)+3*len("replicated")),
		fmt.Sprintf(" meta_bytes=%d meta_backed=%d meta_entries=%d heap_live=", cs.Memgests[1].MetaBytes+cs.Memgests[2].MetaBytes, cs.MetaBacked, cs.MetaEntries),
		" rss_file=",
		fmt.Sprintf(" rss_peak=%d\n", cs.RSSPeak),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	// The delete and the three moves freed four Rep values on every copy
	// (the replicas purge when the coordinator's Purge reaches them).
	repBytes -= uint64(3 * 4 * len("replicated"))
	if !testutil.Eventually(5*time.Second, 5*time.Millisecond, func() bool {
		now, _ := CollectStats(addrs)
		return now.Memgests[1].ValueBytesUsed == repBytes
	}) {
		t.Fatalf("Rep value bytes did not settle at %d", repBytes)
	}

	// Memory given back is as exact. Twenty values of two 28 KiB slots
	// to a chunk land in one shard's table on its coordinator and both
	// replicas: nine chunks behind the table's newest. Deleting the first
	// of each pair frees nine slots, under the arena's four chunks'
	// worth; the tenth, out of the newest chunk, reaches it, and each of
	// the three tables empties the chunk it filed last — one value copied,
	// one chunk to the pool. No counter moved before that, the process
	// gauge every node reports is the pool's size, and every survivor
	// reads back.
	if cs.Memgests[1].ValueSlotsRelocated != 0 || cs.Memgests[1].ValueChunksReleased != 0 {
		t.Fatalf("memgest 1 gave memory back before anything large was freed: %+v", cs.Memgests[1])
	}
	big := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 28000) }
	var keys []string
	for i := 0; len(keys) < 20; i++ {
		if k := fmt.Sprintf("big-%d", i); cl.Cfg.ShardOf(store.KeyHash(k)) == 0 {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		if _, err := c.PutIn(k, big(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	pooledBefore := store.ArenaBytesPooled()
	for i := 0; i < 20; i += 2 {
		if err := c.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	var gave ClusterStats
	if !testutil.Eventually(5*time.Second, 5*time.Millisecond, func() bool {
		gave, _ = CollectStats(addrs)
		return gave.Memgests[1].ValueChunksReleased == 3 && gave.ArenaPooled == int64(len(addrs))*int64(store.ArenaBytesPooled())
	}) {
		t.Fatalf("memgest 1 after ten large deletes: %+v, arena_pooled=%d", gave.Memgests[1], gave.ArenaPooled)
	}
	if m := gave.Memgests[1]; m.ValueSlotsRelocated != 3 || gave.Memgests[2].ValueChunksReleased != 0 || store.ArenaBytesPooled() < pooledBefore+3*(64<<10) {
		t.Fatalf("memgest 1 relocated %d slots, memgest 2 released %d chunks, the pool went from %d to %d bytes",
			m.ValueSlotsRelocated, gave.Memgests[2].ValueChunksReleased, pooledBefore, store.ArenaBytesPooled())
	}
	for i := 1; i < 20; i += 2 {
		if got, _, err := c.Get(keys[i]); err != nil || !bytes.Equal(got, big(i)) {
			t.Fatalf("get %s after the evacuation: %v, %d bytes", keys[i], err, len(got))
		}
	}
	buf.Reset()
	RenderStats(&buf, gave)
	if want := fmt.Sprintf(" slots_relocated=3 chunks_released=3 arena_backed=%d arena_pooled=%d ", gave.ArenaBacked, gave.ArenaPooled); !strings.Contains(buf.String(), want) {
		t.Fatalf("render missing %q:\n%s", want, buf.String())
	}

	// Watch mode renders one block per round.
	buf.Reset()
	if err := WatchStats(&buf, addrs, time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "--- "); got != 2 {
		t.Fatalf("watch rendered %d rounds, want 2:\n%s", got, buf.String())
	}
}

// TestAggregateProcessGauges checks that the runner-goroutine and
// group queue-depth gauges fold from the process section of ringvars
// into the cluster view — including values that went through a JSON
// round trip and therefore arrive as float64.
func TestAggregateProcessGauges(t *testing.T) {
	nodes := []Ringvars{
		{Node: core.MetricsSnapshot{ShardsMoved: 4, ConfigRepushes: 2}, Process: map[string]any{
			"core.runner_goroutines":   float64(3), // as decoded from JSON
			"core.group.0.queue_depth": float64(2),
			"core.group.1.queue_depth": int64(5), // as from an in-process snapshot
			"transport.something":      "not a number",
		}},
		{Node: core.MetricsSnapshot{ConfigRepushes: 3}, Process: map[string]any{
			"core.runner_goroutines":   int64(2),
			"core.group.0.queue_depth": uint64(1),
			"core.group.oops":          float64(9), // malformed name: ignored
		}},
	}
	cs := Aggregate(nodes)
	if cs.RunnerGoroutines != 5 {
		t.Fatalf("RunnerGoroutines = %d, want 5", cs.RunnerGoroutines)
	}
	if cs.GroupQueueDepth[0] != 3 || cs.GroupQueueDepth[1] != 5 || len(cs.GroupQueueDepth) != 2 {
		t.Fatalf("GroupQueueDepth = %v, want {0:3 1:5}", cs.GroupQueueDepth)
	}

	var buf bytes.Buffer
	RenderStats(&buf, cs)
	out := buf.String()
	// A leader's configuration counters fold the same way: the nodes that
	// have led each report their own.
	for _, want := range []string{"runners: goroutines=5 group0_queue=3 group1_queue=5", "config: shards_moved=4 config_repushes=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestTraceEndpoint drives /debug/trace: recent operations come back
// newest-last with rendered op names, the n parameter truncates, and
// malformed values are a client error, not a panic.
func TestTraceEndpoint(t *testing.T) {
	cl, addrs := startObservedCluster(t, core.ClusterSpec{
		Shards: 1, Redundant: 0,
		Memgests: []proto.Scheme{proto.Rep(1, 1)},
	})

	c, err := client.Dial(cl.Fabric, []string{core.NodeAddr(0)}, client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.Put(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get("k-3"); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addrs[0] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/trace?n=2")
	if code != http.StatusOK {
		t.Fatalf("trace returned %d: %s", code, body)
	}
	if got := strings.Count(body, `"seq"`); got != 2 {
		t.Fatalf("trace n=2 returned %d rows:\n%s", got, body)
	}
	// The newest entry is the get of k-3.
	if !strings.Contains(body, `"op": "get"`) || !strings.Contains(body, `"key": "k-3"`) {
		t.Fatalf("trace rows:\n%s", body)
	}

	for _, bad := range []string{"/debug/trace?n=zebra", "/debug/trace?n=-1"} {
		code, body := get(bad)
		if code != http.StatusBadRequest {
			t.Fatalf("%s returned %d, want 400: %s", bad, code, body)
		}
	}
}

// TestTraceRowUnknownStatus pins the rendering of status codes the
// binary does not know (e.g. scraping a newer node): a stable
// placeholder, not a crash or an empty string.
func TestTraceRowUnknownStatus(t *testing.T) {
	row := traceRow(metrics.TraceEntry{Op: metrics.TraceGet, Status: 250})
	if row.Status != "status(250)" {
		t.Fatalf("unknown status rendered as %q", row.Status)
	}
	if row.Op != "get" {
		t.Fatalf("op rendered as %q", row.Op)
	}
}
