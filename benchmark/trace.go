package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/transport"
	"ring/internal/wal"
)

// The traced run assembles the deployment's 3+2 cluster inside this
// process, over wrappers of transport.Fabric and wal.FS that record a
// span around every call into those layers. One goroutine issues the
// first operations of the workload's stream one at a time and lets the
// cluster fall silent after each, so every span recorded between an
// operation's start and that silence belongs to it. Nothing inside Ring
// is instrumented: spans are taken from outside, at the interfaces.

// Span names.
const (
	spanOp     = "client.op"      // root: one operation, issue to reply
	spanSend   = "transport.send" // one Endpoint.Send, per hop
	spanAppend = "wal.fs.append"  // one File.Append of the durable tier
	spanSync   = "wal.fs.sync"    // one File.Sync of the durable tier
	spanTurn   = "core.turn"      // derived: delivery at a node to the last send it causes
)

// span is one recorded interval. Times are nanoseconds since the
// recorder started.
type span struct {
	name       string
	op         int32 // index of the operation in the stream
	start, end int64
	from, to   string        // transport.send: fabric addresses; wal.fs.*: from is the node
	typ        proto.MsgType // transport.send: first message carried; core.turn: the message that opened it
	msgs       int32         // transport.send: messages carried, heartbeats excluded
	bytes      int32         // transport.send: payload bytes; wal.fs.append: bytes appended
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0 time.Time
	// op is the operation being traced, -1 between operations; spans
	// recorded then (boot, preload, heartbeats) are dropped.
	op atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.op.Store(-1)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	op := r.op.Load()
	if op < 0 {
		return
	}
	s.op = op
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tracedFabric wraps a fabric so that every endpoint records its sends.
type tracedFabric struct {
	inner transport.Fabric
	rec   *recorder
}

func (f *tracedFabric) Register(addr string) (transport.Endpoint, error) {
	ep, err := f.inner.Register(addr)
	if err != nil {
		return nil, err
	}
	te := &tracedEndpoint{Endpoint: ep, rec: f.rec}
	if cr, ok := ep.(transport.ChanReceiver); ok {
		// Pass the channel inbox through: the runner then selects on it
		// directly, as it does on the unwrapped fabric.
		return &tracedChanEndpoint{tracedEndpoint: te, ChanReceiver: cr}, nil
	}
	return te, nil
}

type tracedEndpoint struct {
	transport.Endpoint
	rec *recorder
}

type tracedChanEndpoint struct {
	*tracedEndpoint
	transport.ChanReceiver
}

func isHeartbeat(t proto.MsgType) bool { return t == proto.THeartbeat || t == proto.THeartbeatAck }

func isNode(addr string) bool { return len(addr) > 5 && addr[:5] == "node/" }

func (e *tracedEndpoint) Send(to string, payload []byte) error {
	// Read the type tags before Send takes the payload away.
	var (
		first      proto.MsgType
		msgs       int32
		beatsBytes int
	)
	_ = proto.ForEachPacked(payload, func(enc []byte) error {
		if len(enc) == 0 {
			return nil
		}
		if t := proto.MsgType(enc[0]); isHeartbeat(t) {
			beatsBytes += len(enc)
		} else {
			if msgs == 0 {
				first = t
			}
			msgs++
		}
		return nil
	})
	size := len(payload) - beatsBytes
	if msgs == 0 {
		// Heartbeats only: membership traffic, not part of any operation.
		return e.Endpoint.Send(to, payload)
	}
	start := e.rec.now()
	err := e.Endpoint.Send(to, payload)
	end := e.rec.now()
	e.rec.add(span{name: spanSend, start: start, end: end, from: e.Addr(), to: to, typ: first, msgs: msgs, bytes: int32(size)})
	return err
}

// tracedFS wraps the durable tier's file system so that every append
// and sync of one node is recorded.
type tracedFS struct {
	wal.FS
	rec  *recorder
	node string
}

func (f tracedFS) OpenFile(name string) (wal.File, error) {
	inner, err := f.FS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: inner, rec: f.rec, node: f.node}, nil
}

type tracedFile struct {
	wal.File
	rec  *recorder
	node string
}

func (f *tracedFile) Append(p []byte) (int, error) {
	start := f.rec.now()
	n, err := f.File.Append(p)
	f.rec.add(span{name: spanAppend, start: start, end: f.rec.now(), from: f.node, bytes: int32(n)})
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.rec.now()
	err := f.File.Sync()
	f.rec.add(span{name: spanSync, start: start, end: f.rec.now(), from: f.node})
	return err
}

// inproc is the deployment's cluster assembled inside this process.
type inproc struct {
	fabric  transport.Fabric
	runners []*core.Runner
	nodes   []*core.Node
}

// startInproc boots 3 coordinators and 2 redundancy nodes with the
// deployment's memgests on an in-process fabric. With rec set, fabric
// and file system are the recording wrappers. dataDir is used by
// durable workloads only.
func startInproc(w *spec, rec *recorder, dataDir string) (*inproc, error) {
	spec := core.ClusterSpec{
		Shards:    shards,
		Redundant: redundant,
		Memgests:  []proto.Scheme{proto.Rep(3, shards), proto.SRS(3, 2, shards)},
		Opts:      core.Options{BlockSize: blockSize},
	}
	cfg, err := core.BootConfig(spec)
	if err != nil {
		return nil, err
	}
	c := &inproc{fabric: transport.NewMemFabric(0)}
	if rec != nil {
		c.fabric = &tracedFabric{inner: c.fabric, rec: rec}
	}
	for _, id := range cfg.AllNodes() {
		n := core.New(id, cfg.Clone(), spec.Opts)
		if w.durable {
			dir := filepath.Join(dataDir, fmt.Sprintf("node-%d", id))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				c.stop()
				return nil, err
			}
			var fsys wal.FS = wal.DirFS(dir)
			if rec != nil {
				fsys = tracedFS{FS: fsys, rec: rec, node: core.NodeAddr(id)}
			}
			d, err := replog.OpenDurable(fsys, replog.DurableOptions{Policy: replog.FsyncAlways})
			if err != nil {
				c.stop()
				return nil, fmt.Errorf("node %d: %w", id, err)
			}
			n.SetDurable(d)
		}
		r, err := core.StartRunner(n, c.fabric, 0)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.runners = append(c.runners, r)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range c.runners {
		for {
			var serving bool
			r.Inspect(func(n *core.Node) { serving = n.Serving() })
			if serving {
				break
			}
			if time.Now().After(deadline) {
				c.stop()
				return nil, fmt.Errorf("in-process cluster not serving after 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return c, nil
}

func (c *inproc) stop() {
	for _, r := range c.runners {
		r.Stop()
	}
}

func (c *inproc) handled() uint64 {
	var sum uint64
	for _, n := range c.nodes {
		sum += n.Metrics.Events.Load()
	}
	return sum
}

// quiet is how long the cluster must show no progress before an
// operation's trailing messages (commit notices, purges) are taken to
// be over.
const quiet = 50 * time.Microsecond

// settleLimit bounds one settle, so that a cluster that never falls
// silent cannot hang the run. Heartbeats leave quiet stretches every few
// milliseconds, so a healthy settle is far below it even on a busy box.
const settleLimit = time.Second

// settle returns once the cluster has fallen silent: no node is inside
// a drain, every inbox is empty and no node handled an event for the
// length of quiet. The rule is the same on the recording cluster and on
// the unwrapped one. A cluster still busy after settleLimit is an
// error: spans would be attributed to the wrong operation.
func (c *inproc) settle() error {
	begin := time.Now()
	for time.Since(begin) < settleLimit {
		// A drain holds the runner lock through its fsync, during which
		// the node makes no visible progress; Inspect waits it out.
		for _, r := range c.runners {
			r.Inspect(func(*core.Node) {})
		}
		if c.quietFor(quiet) {
			return nil
		}
	}
	return fmt.Errorf("in-process cluster still busy %v after an operation", settleLimit)
}

func (c *inproc) inboxesEmpty() bool {
	for _, r := range c.runners {
		if r.InboxDepth() != 0 {
			return false
		}
	}
	return true
}

// quietFor reports whether the cluster stayed silent for d.
func (c *inproc) quietFor(d time.Duration) bool {
	last, since := c.handled(), time.Now()
	for {
		if !c.inboxesEmpty() || c.handled() != last {
			return false
		}
		if time.Since(since) >= d {
			return true
		}
		runtime.Gosched()
	}
}

// opTrace is what the traced run keeps per operation.
type opTrace struct {
	kind       opKind
	start, end int64 // the root span, ns since the recorder started
}

// runSequential boots an in-process cluster, preloads it, and issues
// ops one at a time, settling after each. It returns each operation's
// latency and, when rec is set, leaves the spans in rec.
func runSequential(w *spec, seed int64, ops []op, rec *recorder, out string) ([]opTrace, error) {
	var dataDir string
	if w.durable {
		var err error
		if dataDir, err = scratchDir(out, "inproc-"); err != nil {
			return nil, err
		}
		defer removeScratch(dataDir)
	}
	c, err := startInproc(w, rec, dataDir)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	conns, err := dialConns(c.fabric, nodeCount, w, seed)
	if err != nil {
		return nil, err
	}
	defer closeConns(conns)
	if err := preload(conns); err != nil {
		return nil, err
	}
	if err := c.settle(); err != nil {
		return nil, err
	}

	clock := rec
	if clock == nil {
		clock = newRecorder()
	}
	buf := make([]byte, w.valueSize)
	traces := make([]opTrace, len(ops))
	for i, o := range ops {
		if rec != nil {
			rec.op.Store(int32(i))
		}
		start := clock.now()
		err := conns[connOf(o.key)].do(o, buf)
		end := clock.now()
		if err != nil {
			return nil, fmt.Errorf("traced op %d (%s %s): %w", i, o.kind, keyName(o.key), err)
		}
		traces[i] = opTrace{kind: o.kind, start: start, end: end}
		if err := c.settle(); err != nil {
			return nil, fmt.Errorf("traced op %d (%s %s): %w", i, o.kind, keyName(o.key), err)
		}
		if rec != nil {
			rec.op.Store(-1)
		}
	}
	return traces, nil
}

// interval is a half-open time range in ns.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs within [lo, hi).
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := ivs[:0:0]
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(root interval, children []interval) int64 {
	return (root.hi - root.lo) - unionLen(children, root.lo, root.hi)
}

// turnRole says which role a node plays in the turn a message opens.
func turnRole(t proto.MsgType) string {
	switch t {
	case proto.TPut, proto.TGet, proto.TMove, proto.TRepAck, proto.TParityAck:
		return "coord"
	case proto.TRepAppend:
		return "replica"
	case proto.TParityUpdate:
		return "parity"
	}
	return ""
}

// deriveTurns computes the core.turn spans of one operation from its
// send spans: at each node, the time from a message's delivery (the end
// of the send that carried it) to the end of the last send the node
// makes before its next delivery. A delivery that finds the node still
// silent since the previous one joins that turn (from outside the two
// cannot be told apart), and a turn without a send is dropped.
func deriveTurns(sends []span) []span {
	type event struct {
		at      int64
		inbound bool
		s       *span
	}
	byNode := make(map[string][]event)
	for i := range sends {
		s := &sends[i]
		if isNode(s.to) {
			byNode[s.to] = append(byNode[s.to], event{at: s.end, inbound: true, s: s})
		}
		if isNode(s.from) {
			byNode[s.from] = append(byNode[s.from], event{at: s.start, s: s})
		}
	}
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var turns []span
	for _, node := range nodes {
		evs := byNode[node]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
		var cur *span
		flush := func() {
			if cur != nil && cur.msgs > 0 {
				turns = append(turns, *cur)
			}
			cur = nil
		}
		for _, ev := range evs {
			if ev.inbound {
				if cur != nil && cur.msgs == 0 {
					continue
				}
				flush()
				cur = &span{name: spanTurn, op: ev.s.op, start: ev.at, end: ev.at, from: node, typ: ev.s.typ}
			} else if cur != nil {
				cur.msgs++ // sends made in this turn
				if ev.s.end > cur.end {
					cur.end = ev.s.end
				}
			}
		}
		flush()
	}
	return turns
}

// traceStats aggregates the spans of a traced run into the trace.*
// metrics.
func traceStats(w *spec, traces []opTrace, byOp [][]span, r *result) {
	var (
		self, coord, replica, parity   []float64
		sendPut, appendPut, syncPut    []float64
		msgs, bytes                    [numKinds][]float64
		fsyncsPut                      []float64
		diskBytes, valueBytes, walSeen int64
	)
	for i, t := range traces {
		var (
			children         []interval
			sends            []span
			sendNS, appNS    int64
			syncNS           int64
			nMsgs, nBytes    int64
			nSyncs, appBytes int64
		)
		for _, s := range byOp[i] {
			children = append(children, interval{s.start, s.end})
			switch s.name {
			case spanSend:
				sends = append(sends, s)
				sendNS += s.dur()
				nMsgs += int64(s.msgs)
				nBytes += int64(s.bytes)
			case spanAppend:
				appNS += s.dur()
				appBytes += int64(s.bytes)
				walSeen++
			case spanSync:
				syncNS += s.dur()
				nSyncs++
				walSeen++
			}
		}
		var coordNS int64
		for _, turn := range deriveTurns(sends) {
			children = append(children, interval{turn.start, turn.end})
			switch turnRole(turn.typ) {
			case "coord":
				coordNS += turn.dur()
			case "replica":
				replica = append(replica, float64(turn.dur())/1e3)
			case "parity":
				parity = append(parity, float64(turn.dur())/1e3)
			}
		}
		self = append(self, float64(selfTime(interval{t.start, t.end}, children))/1e3)
		coord = append(coord, float64(coordNS)/1e3)
		msgs[t.kind] = append(msgs[t.kind], float64(nMsgs))
		bytes[t.kind] = append(bytes[t.kind], float64(nBytes))
		if t.kind == opPut {
			sendPut = append(sendPut, float64(sendNS)/1e3)
			appendPut = append(appendPut, float64(appNS)/1e3)
			syncPut = append(syncPut, float64(syncNS)/1e3)
			fsyncsPut = append(fsyncsPut, float64(nSyncs))
			diskBytes += appBytes
			valueBytes += int64(w.valueSize)
		}
	}
	r.set("trace.client.self_us", median(self))
	r.set("trace.core.coord_turn_us", median(coord))
	r.set("trace.core.replica_turn_us", median(replica))
	r.set("trace.core.parity_turn_us", median(parity))
	r.set("trace.transport.send_us_per_put", median(sendPut))
	r.set("trace.msgs_per_put", median(msgs[opPut]))
	r.set("trace.bytes_per_put", median(bytes[opPut]))
	r.set("trace.msgs_per_get", median(msgs[opGet]))
	r.set("trace.bytes_per_get", median(bytes[opGet]))
	r.set("trace.msgs_per_move", median(msgs[opMove]))
	r.set("trace.wal.fs_append_us_per_put", median(appendPut))
	r.set("trace.wal.fs_sync_us_per_put", median(syncPut))
	r.set("trace.fsyncs_per_put", median(fsyncsPut))
	if valueBytes > 0 {
		r.set("trace.disk_bytes_per_put_byte", float64(diskBytes)/float64(valueBytes))
	}
	r.Notes = append(r.Notes, fmt.Sprintf("traced run: %d ops, %d wal.fs.* spans", len(traces), walSeen))
}

// baselineShare is the part of the traced stream the unwrapped cluster
// repeats to measure what recording costs.
const baselineShare = 4

// totalLatency sums the operations' latencies. The overhead is a ratio
// of totals, not of medians: on a 50:50 mix the median operation sits
// on the edge between gets and puts and flips between them.
func totalLatency(traces []opTrace) float64 {
	var sum int64
	for _, t := range traces {
		sum += t.end - t.start
	}
	return float64(sum)
}

// tracedRun runs the first n operations of the workload's stream on the
// recording in-process cluster, repeats a quarter of them on an
// unwrapped one, stores the trace.* metrics in r and writes the spans
// of the first traceFileOps operations to out/trace-<workload>.json.
func tracedRun(w *spec, seed int64, n int, out string, r *result) error {
	ops := w.stream(seed, n)
	rec := newRecorder()
	traces, err := runSequential(w, seed, ops, rec, out)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	byOp := make([][]span, len(traces))
	for _, s := range rec.spans {
		byOp[s.op] = append(byOp[s.op], s)
	}
	traceStats(w, traces, byOp, r)

	nb := n / baselineShare
	plain, err := runSequential(w, seed, ops[:nb], nil, out)
	if err != nil {
		return fmt.Errorf("untraced baseline run: %w", err)
	}
	if base := totalLatency(plain); base > 0 {
		r.set("trace.overhead_frac", totalLatency(traces[:nb])/base-1)
	}
	return writeTrace(filepath.Join(out, "trace-"+w.name+".json"), w, seed, traces, byOp)
}

// traceFileOps bounds the trace file: the metrics use every traced
// operation, the file holds the first of them.
const traceFileOps = 2000

// Trace file format; README.md explains how to read it.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Ops      int         `json:"ops_traced"`
	FileOps  int         `json:"ops_in_file"`
	Unit     string      `json:"time_unit"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Kind   string `json:"kind,omitempty"` // client.op: get, put or move
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Type   int    `json:"msg_type,omitempty"` // proto.MsgType of the first message carried
	Msgs   int    `json:"msgs,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

func writeTrace(path string, w *spec, seed int64, traces []opTrace, byOp [][]span) error {
	limit := len(traces)
	if limit > traceFileOps {
		limit = traceFileOps
	}
	tf := traceFile{Workload: w.name, Seed: seed, Ops: len(traces), FileOps: limit, Unit: "ns"}
	for i := 0; i < limit; i++ {
		root := len(tf.Spans) + 1
		tf.Spans = append(tf.Spans, traceSpan{ID: root, Op: i, Name: spanOp, Start: traces[i].start, End: traces[i].end, Kind: traces[i].kind.String()})
		var sends []span
		emit := func(s span) {
			tf.Spans = append(tf.Spans, traceSpan{
				ID: len(tf.Spans) + 1, Parent: root, Op: i, Name: s.name, Start: s.start, End: s.end,
				From: s.from, To: s.to, Type: int(s.typ), Msgs: int(s.msgs), Bytes: int(s.bytes),
			})
		}
		for _, s := range byOp[i] {
			emit(s)
			if s.name == spanSend {
				sends = append(sends, s)
			}
		}
		for _, turn := range deriveTurns(sends) {
			emit(turn)
		}
	}
	return writeJSON(path, tf)
}
