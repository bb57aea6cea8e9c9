package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
)

// harness is a deterministic synchronous router over node state
// machines: messages are delivered FIFO with no latency, time advances
// only via Tick, and killed nodes silently drop traffic — a miniature
// of the discrete-event simulator for white-box protocol tests.
type harness struct {
	t     *testing.T
	nodes map[proto.NodeID]*Node
	dead  map[proto.NodeID]bool
	queue []routedMsg
	// client inboxes, keyed by address.
	clientIn map[string][]proto.Message
	now      time.Duration
	// observe, when set, sees every message as it is delivered; drop,
	// when set, says which of them the network loses instead.
	observe func(routedMsg)
	drop    func(routedMsg) bool
}

type routedMsg struct {
	from, to string
	msg      proto.Message
}

func newHarness(t *testing.T, spec ClusterSpec) *harness {
	cfg, err := BootConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t:        t,
		nodes:    make(map[proto.NodeID]*Node),
		dead:     make(map[proto.NodeID]bool),
		clientIn: make(map[string][]proto.Message),
	}
	for _, id := range cfg.AllNodes() {
		h.nodes[id] = New(id, cfg.Clone(), spec.Opts)
	}
	return h
}

// figure3Spec is the paper's 5-node deployment: 3 coordinators, 2
// redundant nodes, and the 7 memgests of Figure 3, plus 2 spares for
// failover tests.
func figure3Spec() ClusterSpec {
	return ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 2,
		Memgests: []proto.Scheme{
			proto.Rep(1, 3),    // 1 REP1 (default)
			proto.Rep(2, 3),    // 2
			proto.Rep(3, 3),    // 3
			proto.Rep(4, 3),    // 4
			proto.SRS(2, 1, 3), // 5
			proto.SRS(3, 1, 3), // 6
			proto.SRS(3, 2, 3), // 7
		},
		Opts: Options{BlockSize: 4096, FailAfter: 50 * time.Millisecond},
	}
}

const (
	mgREP1  proto.MemgestID = 1
	mgREP2  proto.MemgestID = 2
	mgREP3  proto.MemgestID = 3
	mgREP4  proto.MemgestID = 4
	mgSRS21 proto.MemgestID = 5
	mgSRS31 proto.MemgestID = 6
	mgSRS32 proto.MemgestID = 7
)

// sendFrom injects a message from a client address to a node.
func (h *harness) send(fromClient string, to proto.NodeID, msg proto.Message) {
	h.queue = append(h.queue, routedMsg{from: fromClient, to: NodeAddr(to), msg: msg})
}

// run delivers queued messages until quiescent.
func (h *harness) run() {
	for guard := 0; len(h.queue) > 0; guard++ {
		if guard > 1_000_000 {
			h.t.Fatal("harness: message storm, no quiescence")
		}
		m := h.queue[0]
		h.queue = h.queue[1:]
		if h.observe != nil {
			h.observe(m)
		}
		if h.drop != nil && h.drop(m) {
			continue
		}
		id, ok := ParseNodeAddr(m.to)
		if !ok {
			h.clientIn[m.to] = append(h.clientIn[m.to], m.msg)
			continue
		}
		if h.dead[id] {
			continue
		}
		n := h.nodes[id]
		if n == nil {
			continue
		}
		outs := n.deliver(h.now, m.from, m.msg)
		for _, o := range outs {
			h.queue = append(h.queue, routedMsg{from: m.to, to: o.To, msg: o.Msg})
		}
	}
}

// tickUntil advances virtual time in steps of d until cond holds,
// giving up after max steps. Tests assert on the protocol state they
// actually need instead of hard-coding tick counts tuned to one
// heartbeat configuration — the counts silently break when the tick
// step or FailAfter change.
func (h *harness) tickUntil(d time.Duration, max int, cond func() bool) bool {
	for i := 0; i < max; i++ {
		if cond() {
			return true
		}
		h.tick(d)
	}
	return cond()
}

// recovered reports whether a node finished recovery completely:
// admitted, wanting nothing, gathering nothing.
func (h *harness) recovered(id proto.NodeID) bool {
	n := h.nodes[id]
	return n.Serving() && len(n.wants.at) == 0 && len(n.gathers) == 0
}

// config returns the newest configuration a live node has installed.
func (h *harness) config() *proto.Config {
	var cfg *proto.Config
	for id, n := range h.nodes {
		if !h.dead[id] && (cfg == nil || n.cfg.Epoch > cfg.Epoch) {
			cfg = n.cfg
		}
	}
	return cfg
}

// tick advances virtual time and fires every node's timer.
func (h *harness) tick(d time.Duration) {
	h.now += d
	for id, n := range h.nodes {
		if h.dead[id] {
			continue
		}
		outs := n.tickOuts(h.now)
		for _, o := range outs {
			h.queue = append(h.queue, routedMsg{from: NodeAddr(id), to: o.To, msg: o.Msg})
		}
	}
	h.run()
}

// kill marks a node crashed.
func (h *harness) kill(id proto.NodeID) { h.dead[id] = true }

// coordinatorOf returns the live node coordinating key.
func (h *harness) coordinatorOf(key string) (*Node, proto.NodeID) {
	id := h.config().CoordinatorOf(store.KeyHash(key))
	return h.nodes[id], id
}

// lastReply pops the most recent reply delivered to a client address.
func (h *harness) lastReply(client string) proto.Message {
	msgs := h.clientIn[client]
	if len(msgs) == 0 {
		h.t.Fatalf("no reply for %s", client)
	}
	m := msgs[len(msgs)-1]
	h.clientIn[client] = msgs[:len(msgs)-1]
	return m
}

func (h *harness) replies(client string) []proto.Message { return h.clientIn[client] }

// write sends a write to key's coordinator as client/t and returns its
// reply.
func (h *harness) write(key string, m proto.Message) *proto.PutReply {
	_, id := h.coordinatorOf(key)
	h.send("client/t", id, m)
	h.run()
	r, ok := h.lastReply("client/t").(*proto.PutReply)
	if !ok {
		h.t.Fatalf("%T %q: wrong reply type", m, key)
	}
	return r
}

func (h *harness) put(key string, value []byte, mg proto.MemgestID) *proto.PutReply {
	return h.write(key, &proto.Put{Req: 1, Key: key, Value: value, Memgest: mg})
}

func (h *harness) get(key string) *proto.GetReply {
	_, id := h.coordinatorOf(key)
	h.send("client/t", id, &proto.Get{Req: 2, Key: key})
	h.run()
	r, ok := h.lastReply("client/t").(*proto.GetReply)
	if !ok {
		h.t.Fatalf("get %q: wrong reply type", key)
	}
	return r
}

func (h *harness) move(key string, mg proto.MemgestID) *proto.PutReply {
	return h.moveIf(key, 0, mg)
}

// moveIf is move conditional on the key's current memgest (0 = any).
func (h *harness) moveIf(key string, from, to proto.MemgestID) *proto.PutReply {
	return h.write(key, &proto.Move{Req: 3, Key: key, Memgest: to, From: from})
}

// inject hands msg to the key's coordinator but holds back everything
// the node emits in response (the write's fan-out), returning it for
// the test to release — or drop — later.
func (h *harness) inject(key, client string, msg proto.Message) []routedMsg {
	n, id := h.coordinatorOf(key)
	var held []routedMsg
	for _, o := range n.deliver(h.now, client, msg) {
		held = append(held, routedMsg{from: NodeAddr(id), to: o.To, msg: o.Msg})
	}
	return held
}

// release delivers held messages and runs to quiescence.
func (h *harness) release(held []routedMsg) {
	h.queue = append(h.queue, held...)
	h.run()
}

// memgestOf returns the memgest holding key's highest version.
func (h *harness) memgestOf(key string) proto.MemgestID {
	n, _ := h.coordinatorOf(key)
	return n.KeyVersions(key)[0].Memgest
}

func (h *harness) del(key string) *proto.PutReply {
	return h.write(key, &proto.Delete{Req: 4, Key: key})
}

// checkParityInvariant verifies that for every SRS memgest, re-encoding
// the coordinators' primary blocks reproduces exactly the parity nodes'
// regions — the core stripe invariant of the system.
func (h *harness) checkParityInvariant() {
	h.t.Helper()
	var cfg *proto.Config
	for id, n := range h.nodes {
		if !h.dead[id] {
			cfg = n.cfg
			break
		}
	}
	for _, mi := range cfg.Memgests {
		if mi.Scheme.Kind != proto.SchemeSRS {
			continue
		}
		var layout = h.nodes[cfg.Coords[0]].mg[mi.ID].layout
		data := make([][]byte, layout.L)
		for b := 0; b < layout.L; b++ {
			owner := cfg.Coords[layout.DataNodeOf(b)]
			if h.dead[owner] {
				return // cannot verify with dead owners
			}
			cs := h.nodes[owner].mg[mi.ID].coord[uint32(layout.DataNodeOf(b))]
			data[b] = cs.heap.BlockData(uint32(b))
		}
		parity, err := layout.EncodeStretched(data)
		if err != nil {
			h.t.Fatal(err)
		}
		for r, pid := range mi.Redundant[:mi.Scheme.M] {
			if h.dead[pid] {
				continue
			}
			region := h.nodes[pid].mg[mi.ID].parity
			for t := 0; t < layout.Stripes(); t++ {
				if !bytes.Equal(region.Block(t), parity[r][t]) {
					h.t.Fatalf("%s: parity node %d stripe %d diverged from encode of data", mi.Scheme, pid, t)
				}
			}
		}
	}
}

func TestBootConfig(t *testing.T) {
	cfg, err := BootConfig(figure3Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Coords) != 3 || len(cfg.Redundant) != 2 || len(cfg.Spares) != 2 {
		t.Fatalf("role counts wrong: %+v", cfg)
	}
	if len(cfg.Memgests) != 7 || cfg.Default != 1 {
		t.Fatalf("memgests wrong: %+v", cfg.Memgests)
	}
	if _, err := BootConfig(ClusterSpec{Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := BootConfig(ClusterSpec{Shards: 3, Memgests: []proto.Scheme{proto.Rep(2, 4)}}); err == nil {
		t.Fatal("mismatched s accepted")
	}
}

func TestReplicaSet(t *testing.T) {
	cfg, _ := BootConfig(figure3Spec())
	rep4 := cfg.Memgest(mgREP4)
	rs := replicaSet(cfg, rep4, 0)
	if len(rs) != 3 {
		t.Fatalf("Rep(4,3) shard 0 replicas = %v", rs)
	}
	// Redundant nodes 3,4 first, then the next coordinator.
	if rs[0] != 3 || rs[1] != 4 || rs[2] != 1 {
		t.Fatalf("replica order = %v, want [3 4 1]", rs)
	}
	rep1 := cfg.Memgest(mgREP1)
	if got := replicaSet(cfg, rep1, 0); len(got) != 0 {
		t.Fatalf("Rep(1) has replicas: %v", got)
	}
}

func TestQuorumAcks(t *testing.T) {
	cases := []struct {
		sc   proto.Scheme
		want int
	}{
		{proto.Rep(1, 3), 0},
		{proto.Rep(2, 3), 1},
		{proto.Rep(3, 3), 1}, // majority of 3 = 2, minus self
		{proto.Rep(4, 3), 2},
		{proto.Rep(5, 3), 2},
		{proto.SRS(2, 1, 3), 1},
		{proto.SRS(3, 2, 3), 2},
	}
	n := New(0, &proto.Config{Epoch: 1, Coords: []proto.NodeID{0}}, Options{})
	for _, c := range cases {
		if got := n.quorumAcks(c.sc); got != c.want {
			t.Errorf("quorumAcks(%v) = %d, want %d", c.sc, got, c.want)
		}
	}
	// Synchronous replication needs every copy.
	ns := New(0, &proto.Config{Epoch: 1, Coords: []proto.NodeID{0}}, Options{SyncReplication: true})
	if got := ns.quorumAcks(proto.Rep(4, 3)); got != 3 {
		t.Errorf("sync quorumAcks(Rep4) = %d, want 3", got)
	}
}

func TestPutGetAllMemgests(t *testing.T) {
	h := newHarness(t, figure3Spec())
	for mg := mgREP1; mg <= mgSRS32; mg++ {
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("key-%d-%d", mg, i)
			val := bytes.Repeat([]byte{byte(mg), byte(i)}, 100+i)
			r := h.put(key, val, mg)
			if r.Status != proto.StOK || r.Version != 1 {
				t.Fatalf("put %s into mg %d: %+v", key, mg, r)
			}
			g := h.get(key)
			if g.Status != proto.StOK || !bytes.Equal(g.Value, val) || g.Version != 1 {
				t.Fatalf("get %s from mg %d: status=%v", key, mg, g.Status)
			}
		}
	}
	h.checkParityInvariant()
}

func TestPutVersioningAndOverwrite(t *testing.T) {
	h := newHarness(t, figure3Spec())
	for i := 1; i <= 5; i++ {
		r := h.put("k", []byte(fmt.Sprintf("v%d", i)), mgSRS32)
		if r.Version != proto.Version(i) {
			t.Fatalf("put %d: version %d", i, r.Version)
		}
	}
	g := h.get("k")
	if string(g.Value) != "v5" || g.Version != 5 {
		t.Fatalf("get: %q v%d", g.Value, g.Version)
	}
	h.checkParityInvariant()
	// Old versions must be GCed on the coordinator.
	n, _ := h.coordinatorOf("k")
	shard := n.shardOf("k")
	if got := len(n.KeyVersions("k")); got != 1 {
		t.Fatalf("GC left %d versions", got)
	}
	cs := n.mg[mgSRS32].coord[shard]
	if cs.meta.Len() != 1 {
		t.Fatalf("metadata has %d entries after GC", cs.meta.Len())
	}
}

func TestGetMissingKey(t *testing.T) {
	h := newHarness(t, figure3Spec())
	if g := h.get("nope"); g.Status != proto.StNotFound {
		t.Fatalf("get missing: %v", g.Status)
	}
}

func TestDelete(t *testing.T) {
	h := newHarness(t, figure3Spec())
	for _, mg := range []proto.MemgestID{mgREP1, mgREP3, mgSRS32} {
		key := fmt.Sprintf("dk-%d", mg)
		h.put(key, []byte("x"), mg)
		if d := h.del(key); d.Status != proto.StOK {
			t.Fatalf("delete in mg %d: %v", mg, d.Status)
		}
		if g := h.get(key); g.Status != proto.StNotFound {
			t.Fatalf("get after delete in mg %d: %v", mg, g.Status)
		}
	}
	if d := h.del("never-existed"); d.Status != proto.StNotFound {
		t.Fatalf("delete missing: %v", d.Status)
	}
	h.checkParityInvariant()
}

// TestEveryWriteReplyNamesItsVersion: a put, a delete and a move are
// each answered by a PutReply naming the version the write committed —
// a delete's is its tombstone's, a move's the one the key holds in the
// destination memgest — and a bulk move's names the keys it moved.
// The tombstone is reclaimed once it commits, so the put after the
// delete starts the key at v1 again: a floor that keeps versions rising
// (4 there, 5 for the move) is ROADMAP item 4(b).
func TestEveryWriteReplyNamesItsVersion(t *testing.T) {
	h := newHarness(t, figure3Spec())
	_, owner := h.coordinatorOf("b/")
	var bulk []string
	for i := 0; len(bulk) < 3; i++ {
		key := fmt.Sprintf("b/%d", i)
		if _, id := h.coordinatorOf(key); id == owner {
			bulk = append(bulk, key)
		}
	}
	put := func(v string) func() *proto.PutReply {
		return func() *proto.PutReply { return h.put("k", []byte(v), mgREP3) }
	}
	for _, step := range []struct {
		name string
		do   func() *proto.PutReply
		want proto.PutReply
	}{
		{"put", put("a"), proto.PutReply{Req: 1, Version: 1}},
		{"overwrite", put("b"), proto.PutReply{Req: 1, Version: 2}},
		{"delete", func() *proto.PutReply { return h.del("k") }, proto.PutReply{Req: 4, Version: 3}},
		{"put after the delete", put("c"), proto.PutReply{Req: 1, Version: 1}},
		{"move", func() *proto.PutReply { return h.move("k", mgSRS32) }, proto.PutReply{Req: 3, Version: 2}},
		{"bulk move", func() *proto.PutReply {
			for _, key := range bulk {
				h.put(key, []byte("x"), mgREP3)
			}
			return h.write("b/", &proto.Move{Req: 5, Key: "b/", Memgest: mgSRS32, Prefix: true})
		}, proto.PutReply{Req: 5, Moved: uint32(len(bulk))}},
		{"delete of an absent key", func() *proto.PutReply { return h.del("absent") }, proto.PutReply{Req: 4, Status: proto.StNotFound}},
	} {
		if got := *step.do(); got != step.want {
			t.Errorf("%s: %+v, want %+v", step.name, got, step.want)
		}
	}
	h.checkParityInvariant()
}

func TestWrongNodeRouting(t *testing.T) {
	h := newHarness(t, figure3Spec())
	_, right := h.coordinatorOf("wk")
	wrong := (right + 1) % 3
	h.send("client/w", wrong, &proto.Put{Req: 9, Key: "wk", Value: []byte("v")})
	h.run()
	r := h.lastReply("client/w").(*proto.PutReply)
	if r.Status != proto.StWrongNode {
		t.Fatalf("wrong node put: %v", r.Status)
	}
}

func TestUncommittedGetIsParked(t *testing.T) {
	// Drive a Rep(3) put manually: before the acks arrive, a get for
	// the key must be parked, and released at commit with the new
	// value — Figure 5's client D.
	spec := figure3Spec()
	h := newHarness(t, spec)
	h.put("pk", []byte("old"), mgREP3)

	n, id := h.coordinatorOf("pk")
	// Inject the put but do NOT run the router yet: replication
	// messages stay queued.
	outs := n.deliver(h.now, "client/p", &proto.Put{Req: 10, Key: "pk", Value: []byte("new"), Memgest: mgREP3})
	var repl []routedMsg
	for _, o := range outs {
		repl = append(repl, routedMsg{from: NodeAddr(id), to: o.To, msg: o.Msg})
	}
	// Concurrent get: arrives while version 2 is uncommitted.
	outs = n.deliver(h.now, "client/g", &proto.Get{Req: 11, Key: "pk"})
	if len(outs) != 0 {
		t.Fatalf("get of uncommitted version answered immediately: %v", outs)
	}
	if n.Stats.ParkedGets != 1 {
		t.Fatalf("ParkedGets = %d", n.Stats.ParkedGets)
	}
	// Now deliver the replication traffic; the commit must release
	// both the put reply and the parked get.
	h.queue = append(h.queue, repl...)
	h.run()
	pr := h.lastReply("client/p").(*proto.PutReply)
	if pr.Status != proto.StOK || pr.Version != 2 {
		t.Fatalf("put reply: %+v", pr)
	}
	gr := h.lastReply("client/g").(*proto.GetReply)
	if gr.Status != proto.StOK || string(gr.Value) != "new" || gr.Version != 2 {
		t.Fatalf("parked get reply: %+v", gr)
	}
}

func TestRepQuorumCommitBeforeAllAcks(t *testing.T) {
	// Rep(4,3): quorum = 2 remote acks of 3 replicas. Deliver exactly
	// two acks; the put must commit without the third.
	h := newHarness(t, figure3Spec())
	n, id := h.coordinatorOf("qk")
	outs := n.deliver(h.now, "client/q", &proto.Put{Req: 12, Key: "qk", Value: []byte("v"), Memgest: mgREP4})
	var appends []routedMsg
	for _, o := range outs {
		appends = append(appends, routedMsg{from: NodeAddr(id), to: o.To, msg: o.Msg})
	}
	if len(appends) != 3 {
		t.Fatalf("Rep(4) sent %d appends, want 3", len(appends))
	}
	// Deliver only the first two replicas' traffic.
	h.queue = append(h.queue, appends[:2]...)
	h.run()
	pr := h.lastReply("client/q").(*proto.PutReply)
	if pr.Status != proto.StOK {
		t.Fatalf("put did not commit on quorum: %+v", pr)
	}
}

func TestParityDeltaPath(t *testing.T) {
	// Overwriting a key in SRS reuses heap space via GC; the parity
	// invariant must hold through alloc-free-realloc cycles.
	h := newHarness(t, figure3Spec())
	for i := 0; i < 50; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 512+(i%7)*64)
		h.put("cycle", val, mgSRS32)
		if i%10 == 9 {
			h.checkParityInvariant()
		}
	}
	// Also interleave two keys on the same shard... any keys work.
	for i := 0; i < 20; i++ {
		h.put(fmt.Sprintf("other-%d", i%3), bytes.Repeat([]byte{0xee}, 300), mgSRS21)
	}
	h.checkParityInvariant()
}

func TestCreateAndUseMemgest(t *testing.T) {
	h := newHarness(t, figure3Spec())
	leader := h.nodes[0]
	outs := leader.deliver(h.now, "client/m", &proto.Reconfig{Req: 20, Op: proto.ReconfigCreate, Scheme: proto.SRS(2, 2, 3)})
	for _, o := range outs {
		h.queue = append(h.queue, routedMsg{from: NodeAddr(0), to: o.To, msg: o.Msg})
	}
	h.run()
	mr := h.lastReply("client/m").(*proto.ReconfigReply)
	if mr.Status != proto.StOK {
		t.Fatalf("create: %v", mr.Status)
	}
	newID := mr.Memgest
	if newID != 8 {
		t.Fatalf("new memgest id = %d", newID)
	}
	r := h.put("nk", []byte("in new scheme"), newID)
	if r.Status != proto.StOK {
		t.Fatalf("put into new memgest: %v", r.Status)
	}
	if g := h.get("nk"); string(g.Value) != "in new scheme" {
		t.Fatal("get from new memgest failed")
	}
	h.checkParityInvariant()

	// Invalid schemes are rejected.
	for _, sc := range []proto.Scheme{proto.SRS(3, 3, 3), proto.Rep(9, 3), proto.SRS(2, 1, 4)} {
		outs := leader.deliver(h.now, "client/m", &proto.Reconfig{Req: 21, Op: proto.ReconfigCreate, Scheme: sc})
		if len(outs) != 1 {
			t.Fatal("expected direct reply")
		}
		if outs[0].Msg.(*proto.ReconfigReply).Status != proto.StInvalid {
			t.Fatalf("scheme %v accepted", sc)
		}
	}
	// Non-leader rejects management ops.
	outs = h.nodes[1].deliver(h.now, "client/m", &proto.Reconfig{Req: 22, Op: proto.ReconfigCreate, Scheme: proto.Rep(2, 3)})
	if outs[0].Msg.(*proto.ReconfigReply).Status != proto.StWrongNode {
		t.Fatal("non-leader accepted createMemgest")
	}
}

func TestSetDefaultMemgest(t *testing.T) {
	h := newHarness(t, figure3Spec())
	h.send("client/d", 0, &proto.Reconfig{Req: 30, Op: proto.ReconfigSetDefault, Memgest: mgSRS32})
	h.run()
	if r := h.lastReply("client/d").(*proto.ReconfigReply); r.Status != proto.StOK {
		t.Fatalf("set default: %v", r.Status)
	}
	// A put without memgest now lands in SRS32.
	r := h.put("dk", []byte("v"), 0)
	if r.Status != proto.StOK {
		t.Fatal(r.Status)
	}
	n, _ := h.coordinatorOf("dk")
	if ref := n.KeyVersions("dk")[0]; ref.Memgest != mgSRS32 {
		t.Fatalf("default put landed in %d", ref.Memgest)
	}
}

func TestDeleteMemgest(t *testing.T) {
	h := newHarness(t, figure3Spec())
	h.send("client/d", 0, &proto.Reconfig{Req: 31, Op: proto.ReconfigDelete, Memgest: mgREP2})
	h.run()
	if r := h.lastReply("client/d").(*proto.ReconfigReply); r.Status != proto.StOK {
		t.Fatalf("delete memgest: %v", r.Status)
	}
	r := h.put("x", []byte("v"), mgREP2)
	if r.Status != proto.StNoMemgest {
		t.Fatalf("put into deleted memgest: %v", r.Status)
	}
	// Unknown memgest.
	h.send("client/d", 0, &proto.Reconfig{Req: 32, Op: proto.ReconfigDelete, Memgest: 99})
	h.run()
	if r := h.lastReply("client/d").(*proto.ReconfigReply); r.Status != proto.StNoMemgest {
		t.Fatalf("delete unknown: %v", r.Status)
	}
}

func TestHeartbeatsKeepClusterStable(t *testing.T) {
	h := newHarness(t, figure3Spec())
	for i := 0; i < 30; i++ {
		h.tick(10 * time.Millisecond)
	}
	for id, n := range h.nodes {
		if n.cfg.Epoch != 1 {
			t.Fatalf("node %d: spurious reconfiguration to epoch %d", id, n.cfg.Epoch)
		}
	}
}

func TestCoordinatorFailover(t *testing.T) {
	h := newHarness(t, figure3Spec())
	// Write keys into several memgests.
	keys := map[string]proto.MemgestID{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("fk-%d", i)
		mg := []proto.MemgestID{mgREP3, mgSRS21, mgSRS32, mgREP4}[i%4]
		h.put(key, []byte("val-"+key), mg)
		keys[key] = mg
	}
	// Kill coordinator 1 (not the leader).
	h.kill(1)
	// Let the leader detect the failure and reconfigure.
	lead := h.nodes[0]
	if !h.tickUntil(10*time.Millisecond, 100, func() bool { return lead.cfg.Epoch >= 2 }) {
		t.Fatal("leader did not reconfigure")
	}
	if lead.cfg.Coords[1] == 1 {
		t.Fatal("dead node still coordinates shard 1")
	}
	newCoord := lead.cfg.Coords[1]
	if newCoord != 5 && newCoord != 6 {
		t.Fatalf("unexpected replacement %d", newCoord)
	}
	// Let recovery complete (metadata + background blocks).
	if !h.tickUntil(10*time.Millisecond, 200, func() bool { return h.recovered(newCoord) }) {
		t.Fatal("replacement never finished recovery")
	}
	// Every key must still be readable with its original value.
	for key, mg := range keys {
		g := h.get(key)
		if g.Status != proto.StOK || string(g.Value) != "val-"+key {
			t.Fatalf("key %s (mg %d) after failover: %v %q", key, mg, g.Status, g.Value)
		}
	}
	// And writable.
	for key := range keys {
		if r := h.put(key, []byte("post-failover"), keys[key]); r.Status != proto.StOK {
			t.Fatalf("put %s after failover: %v", key, r.Status)
		}
	}
}

// TestRecoveryFetchesValuesInKeyOrder: a coordinator taking over a Rep
// shard queues the background fetches of the values it lost in (key,
// version) order, not in the order its metadata table — a Go map —
// happens to walk, so two runs of one seed send the same Fetches in
// the same order (a dozen chaos seeds once differed from themselves on
// exactly this).
func TestRecoveryFetchesValuesInKeyOrder(t *testing.T) {
	h := newHarness(t, figure3Spec())
	want := 0
	for i := 0; want < 64; i++ {
		key := fmt.Sprintf("rk-%03d", i)
		if _, id := h.coordinatorOf(key); id != 1 {
			continue
		}
		h.put(key, []byte("val-"+key), mgREP3)
		want++
	}
	var fetched []store.EntryKey
	h.observe = func(m routedMsg) {
		if df, ok := m.msg.(*proto.Fetch); ok && df.Memgest == mgREP3 {
			fetched = append(fetched, store.EntryKey{Key: df.Key, Version: df.Version})
		}
	}
	h.kill(1)
	lead := h.nodes[0]
	if !h.tickUntil(10*time.Millisecond, 100, func() bool { return lead.cfg.Epoch >= 2 }) {
		t.Fatal("leader did not reconfigure")
	}
	if !h.tickUntil(10*time.Millisecond, 400, func() bool { return h.recovered(lead.cfg.Coords[1]) }) {
		t.Fatal("replacement never finished recovery")
	}
	if len(fetched) != want {
		t.Fatalf("replacement fetched %d values, want %d", len(fetched), want)
	}
	if !sort.SliceIsSorted(fetched, func(i, j int) bool { return fetched[i].Less(fetched[j]) }) {
		t.Fatalf("Fetches left in table order, not key order: %v ...", fetched[:8])
	}
}

func TestLeaderFailover(t *testing.T) {
	h := newHarness(t, figure3Spec())
	h.put("lk", []byte("v"), mgREP3)
	h.kill(0) // the leader coordinates shard 0 too
	// Node 1 (lowest surviving ID) must take leadership.
	n1 := h.nodes[1]
	if !h.tickUntil(10*time.Millisecond, 100, n1.IsLeader) {
		t.Fatalf("node 1 is not leader (cfg leader = %d)", n1.cfg.Leader)
	}
	if n1.cfg.Coords[0] == 0 {
		t.Fatal("dead leader still coordinates shard 0")
	}
	// All surviving nodes converge on the same epoch and leader.
	converged := func() bool {
		for id, n := range h.nodes {
			if !h.dead[id] && n.cfg.Leader != 1 {
				return false
			}
		}
		return true
	}
	if !h.tickUntil(10*time.Millisecond, 100, converged) {
		for id, n := range h.nodes {
			if !h.dead[id] && n.cfg.Leader != 1 {
				t.Fatalf("node %d sees leader %d", id, n.cfg.Leader)
			}
		}
	}
	// Let recovery finish, then the cluster must serve again.
	newCoord0 := n1.cfg.Coords[0]
	if !h.tickUntil(10*time.Millisecond, 200, func() bool { return h.recovered(newCoord0) }) {
		t.Fatal("shard 0 replacement never finished recovery")
	}
	if r := h.put("lk2", []byte("w"), mgREP3); r.Status != proto.StOK {
		t.Fatalf("put after leader failover: %v", r.Status)
	}
}

func TestParityNodeFailover(t *testing.T) {
	h := newHarness(t, figure3Spec())
	for i := 0; i < 10; i++ {
		h.put(fmt.Sprintf("pfk-%d", i), bytes.Repeat([]byte{byte(i)}, 700), mgSRS32)
	}
	// Node 4 is the second redundant node: parity 1 of SRS32.
	h.kill(4)
	lead := h.nodes[0]
	rebuilt := func() bool {
		repl := lead.cfg.Memgests[mgSRS32-1].Redundant[1]
		return repl != 4 && h.recovered(repl)
	}
	if !h.tickUntil(10*time.Millisecond, 200, rebuilt) {
		t.Fatal("dead parity node not replaced and rebuilt")
	}
	repl := lead.cfg.Memgests[mgSRS32-1].Redundant[1]
	if repl == 4 {
		t.Fatal("dead parity node not replaced")
	}
	// The replacement must have rebuilt identical parity: verify the
	// stripe invariant across the whole memgest.
	h.checkParityInvariant()
	// New writes keep working.
	if r := h.put("pfk-new", []byte("fresh"), mgSRS32); r.Status != proto.StOK {
		t.Fatalf("put after parity failover: %v", r.Status)
	}
	h.checkParityInvariant()
}

func TestUnreliableMemgestLosesDataOnFailure(t *testing.T) {
	// Rep(1,s) data is gone after its coordinator dies — the documented
	// trade-off of the unreliable memgest.
	h := newHarness(t, figure3Spec())
	h.put("uk", []byte("volatile"), mgREP1)
	h.put("rk", []byte("durable"), mgREP3)
	n, id := h.coordinatorOf("uk")
	_ = n
	h.kill(id)
	for i := 0; i < 80; i++ {
		h.tick(10 * time.Millisecond)
	}
	if g := h.get("uk"); g.Status != proto.StNotFound {
		t.Fatalf("unreliable key survived: %v", g.Status)
	}
	// But the reliable key (possibly on another shard) is intact.
	if _, rid := h.coordinatorOf("rk"); rid != id {
		if g := h.get("rk"); g.Status != proto.StOK {
			t.Fatalf("reliable key lost: %v", g.Status)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	h := newHarness(t, figure3Spec())
	h.put("sk", []byte("v"), mgSRS32)
	h.get("sk")
	n, _ := h.coordinatorOf("sk")
	if c := n.MetricsSnapshot().Memgests[mgSRS32]; c.Puts != 1 || c.Gets != 1 || c.Commits != 1 {
		t.Fatalf("memgest counts: %+v", c)
	}
	if n.Stats.ParityUpdates != 2 {
		t.Fatalf("SRS32 put sent %d parity updates, want 2", n.Stats.ParityUpdates)
	}
}

// TestDoubleFailureRecovery kills a coordinator AND a redundant node at
// once, every pair of the Figure 3 deployment. The replacement
// coordinator's metadata fetch initially targets the dead redundant
// node; the tick-driven retry must prune it once the leader
// reconfigures, letting recovery converge instead of wedging. And the
// replacement parity node holds no parity yet: asked to decode a block
// of the replacement coordinator it must refuse until its own stripes
// are rebuilt, or the keys read back as bytes no client wrote.
func TestDoubleFailureRecovery(t *testing.T) {
	for _, pair := range [][2]proto.NodeID{{0, 3}, {0, 4}, {1, 3}, {1, 4}, {2, 3}, {2, 4}} {
		t.Run(fmt.Sprintf("kill-%d-%d", pair[0], pair[1]), func(t *testing.T) {
			h := newHarness(t, figure3Spec())
			keys := map[string][]byte{}
			for i := 0; i < 24; i++ {
				key := fmt.Sprintf("df-%d", i)
				val := bytes.Repeat([]byte{byte(i + 1)}, 400)
				h.put(key, val, []proto.MemgestID{mgSRS32, mgREP3}[i%2])
				keys[key] = val
			}
			h.kill(pair[0]) // a coordinator (node 0 leads as well)
			h.kill(pair[1]) // parity node of the SRS memgests, replica of the Rep ones
			// Both dead nodes must be replaced and everything that survives
			// recovered. What does not: losing node 3 with a coordinator is
			// one failure more than Rep(2,3), SRS(2,1,3) and SRS(3,1,3)
			// tolerate, and the wants for their blocks stay open for good.
			settled := func() bool {
				cfg := h.config()
				for id, n := range h.nodes {
					if h.dead[id] {
						if holdsRole(cfg, id) {
							return false
						}
						continue
					}
					if n.cfg.Epoch != cfg.Epoch || !n.Serving() {
						return false
					}
					for id := range n.wants.at {
						if id.role.mg == mgSRS32 || id.role.mg == mgREP3 || id.role.mg == mgREP4 {
							return false
						}
					}
				}
				return true
			}
			if !h.tickUntil(10*time.Millisecond, 600, settled) {
				t.Fatalf("double failure never fully recovered (config %+v)", h.config())
			}
			// Survivable data: REP3 keys always (one copy of three is left);
			// SRS32 keys of the dead coordinator lost BOTH a data column and
			// one parity — still within m=2, so they must be recoverable too.
			for key, val := range keys {
				if g := h.get(key); g.Status != proto.StOK || !bytes.Equal(g.Value, val) {
					t.Fatalf("key %s after double failure: %v, %d bytes of %#x", key, g.Status, len(g.Value), g.Value[:min(1, len(g.Value))])
				}
			}
			h.checkParityInvariant()
			// Cluster accepts new writes everywhere.
			for i := 0; i < 6; i++ {
				if r := h.put(fmt.Sprintf("df-new-%d", i), []byte("post"), mgSRS32); r.Status != proto.StOK {
					t.Fatalf("post-recovery put: %v", r.Status)
				}
			}
			h.checkParityInvariant()
		})
	}
}

// TestFailoverTimingVariants runs a coordinator failover under both a
// faster and a much slower failure detector, proving failover is
// driven by the configured FailAfter rather than by constants the
// other tests happen to match — and that the detector does not fire
// early.
func TestFailoverTimingVariants(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hb, fail time.Duration
	}{
		{"fast", 5 * time.Millisecond, 25 * time.Millisecond},
		{"slow", 40 * time.Millisecond, 200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := figure3Spec()
			spec.Opts.FailAfter = tc.fail
			h := newHarness(t, spec)
			h.put("tk", []byte("v"), mgREP3)
			h.kill(1)
			killedAt := h.now

			// No premature detection: the last heartbeat from node 1
			// arrived at most one tick step before the kill, so the
			// leader must not reconfigure before killedAt + FailAfter -
			// the step.
			lead := h.nodes[0]
			for h.now < killedAt+tc.fail-2*tc.hb {
				h.tick(tc.hb)
				if lead.cfg.Epoch != 1 {
					t.Fatalf("reconfigured at %v, before FailAfter=%v elapsed", h.now-killedAt, tc.fail)
				}
			}

			// Then detection, replacement, and full recovery.
			if !h.tickUntil(tc.hb, 400, func() bool { return lead.cfg.Epoch >= 2 }) {
				t.Fatal("leader never reconfigured")
			}
			newCoord := lead.cfg.Coords[1]
			if newCoord == 1 {
				t.Fatal("dead node still coordinates shard 1")
			}
			if !h.tickUntil(tc.hb, 400, func() bool { return h.recovered(newCoord) }) {
				t.Fatal("replacement never finished recovery")
			}
			if g := h.get("tk"); g.Status != proto.StOK || string(g.Value) != "v" {
				t.Fatalf("key after failover: %v %q", g.Status, g.Value)
			}
		})
	}
}
