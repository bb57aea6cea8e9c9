package core

import (
	"bytes"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
	"ring/internal/transport"
)

// peer is a test-driven fabric endpoint: the test plays the client and
// the replica by hand, so it decides exactly when each ack arrives.
type peer struct {
	t    *testing.T
	ep   transport.Endpoint
	msgs []proto.Message // decoded, not yet consumed
}

func (p *peer) send(to string, m proto.Message) {
	p.t.Helper()
	if err := p.ep.Send(to, proto.Encode(m)); err != nil {
		p.t.Fatal(err)
	}
}

// next returns the next message for which want reports true, skipping
// the rest (heartbeats, commits, purges).
func (p *peer) next(want func(proto.Message) bool) proto.Message {
	p.t.Helper()
	for {
		for len(p.msgs) > 0 {
			m := p.msgs[0]
			p.msgs = p.msgs[1:]
			if want(m) {
				return m
			}
		}
		var pkt transport.Packet
		select {
		case pkt = <-p.ep.(transport.ChanReceiver).RecvChan():
		case <-time.After(10 * time.Second):
			p.t.Fatal("no message in 10 s: the node dropped or misdirected one")
		}
		// The packet is never released, so the decoded views stay valid.
		if err := proto.ForEachPacked(pkt.Payload, func(enc []byte) error {
			m, err := proto.Decode(enc)
			if err == nil {
				p.msgs = append(p.msgs, m)
			}
			return err
		}); err != nil {
			p.t.Fatal(err)
		}
	}
}

// runBatch runs pkts through r as one batch, the way its loop runs what
// one Poll delivers, and reports false if the node crash-stopped.
func runBatch(r *Runner, pkts ...transport.Packet) bool {
	for _, p := range pkts {
		r.deliverOne(p.From, p.Payload)
	}
	return r.drain(len(pkts))
}

func (p *peer) nextAppend() *proto.RepAppend {
	p.t.Helper()
	return p.next(func(m proto.Message) bool { _, ok := m.(*proto.RepAppend); return ok }).(*proto.RepAppend)
}

// handHeld is node 0 of a one-shard cluster of two Rep(2,1) memgests,
// running under a real runner, with its client and its one replica,
// node 1, played by the test. No timer traffic: every packet below is
// caused by the test, which decides exactly when each ack arrives.
type handHeld struct {
	t               *testing.T
	cfg             *proto.Config
	r               *Runner
	client, replica *peer
}

const coord0 = "node/0"

func newHandHeld(t *testing.T) *handHeld {
	t.Helper()
	if !PoisonPayloads {
		t.Fatal("PoisonPayloads is off: TestMain must switch it on")
	}
	cfg, err := BootConfig(ClusterSpec{
		Shards: 1, Redundant: 1,
		Memgests: []proto.Scheme{proto.Rep(2, 1), proto.Rep(2, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewMemFabric(0)
	r, err := StartRunner(New(0, cfg.Clone(), Options{FailAfter: 10 * time.Minute}), fabric, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	register := func(addr string) *peer {
		ep, err := fabric.Register(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return &peer{t: t, ep: ep}
	}
	return &handHeld{t: t, cfg: cfg, r: r, client: register("client/t"), replica: register(NodeAddr(1))}
}

func (h *handHeld) send(m proto.Message) { h.client.send(coord0, m) }

func (h *handHeld) ack(a *proto.RepAppend) {
	h.replica.send(coord0, &proto.RepAck{Memgest: a.Memgest, Shard: a.Shard, Seq: a.Seq})
}

// reply returns the client's next reply.
func (h *handHeld) reply() proto.Reply {
	h.t.Helper()
	return h.client.next(func(m proto.Message) bool { _, ok := m.(proto.Reply); return ok }).(proto.Reply)
}

// expect fails unless the client's next reply answers req with StOK.
func (h *handHeld) expect(req proto.ReqID) proto.Reply {
	h.t.Helper()
	rep := h.reply()
	if rep.Request() != req || rep.Result() != proto.StOK {
		h.t.Fatalf("reply %T answers request %#x with %v, want %d with OK", rep, rep.Request(), rep.Result(), req)
	}
	return rep
}

// put commits key's next version in memgest 1.
func (h *handHeld) put(req proto.ReqID, key string, val []byte) {
	h.t.Helper()
	h.send(&proto.Put{Req: req, Key: key, Value: val, Memgest: 1})
	h.ack(h.replica.nextAppend())
	h.expect(req)
}

// behind sends a put of another key and waits for its append: the
// runner handles packets in order, so everything sent before it has been
// handled and its message given back (and poisoned). Its own append is
// never acked.
func (h *handHeld) behind() {
	h.t.Helper()
	h.send(&proto.Put{Req: 99, Key: "marker", Value: []byte("m"), Memgest: 1})
	if a := h.replica.nextAppend(); a.Rec.Key != "marker" {
		h.t.Fatalf("append for %q before the marker's", a.Rec.Key)
	}
}

// parked counts the ops parked on open move windows.
func (h *handHeld) parked() (n int) {
	h.r.Inspect(func(node *Node) {
		for _, mv := range node.moving {
			n += len(mv.parked)
		}
	})
	return n
}

// TestParkedPutOwnsItsValue pins the ownership rule at the park site: a
// put that parks on an open move window outlives the packet it arrived
// in, so it must own a copy of its value. The runner recycles the
// packet (and, under PoisonPayloads, overwrites it with 0xDB) as soon
// as the parking handler returns; when the window closes the replayed
// put must still carry the client's bytes. Remove the copy in park
// and the replica below receives 16 KiB of 0xDB.
func TestParkedPutOwnsItsValue(t *testing.T) {
	h := newHandHeld(t)
	h.put(1, "k", []byte("v1"))

	// Open the window and hold it: the destination append stays unacked.
	h.send(&proto.Move{Req: 2, Key: "k", Memgest: 2})
	moveAppend := h.replica.nextAppend()
	if moveAppend.Memgest != 2 {
		t.Fatalf("move's destination append went to memgest %d", moveAppend.Memgest)
	}

	// The put parks, and its packet is consumed and recycled.
	val := bytes.Repeat([]byte("park"), 4<<10)
	h.send(&proto.Put{Req: 3, Key: "k", Value: val, Memgest: 1})
	h.behind()
	if n := h.parked(); n != 1 {
		t.Fatalf("%d ops parked on the window, want 1", n)
	}

	// Close the window: the move commits and the parked put replays.
	h.ack(moveAppend)
	h.expect(2)
	replayed := h.replica.nextAppend()
	if replayed.Rec.Key != "k" || !bytes.Equal(replayed.Value, val) {
		t.Fatalf("replayed put carries %d bytes starting %x, want the client's %d bytes of %q",
			len(replayed.Value), replayed.Value[:min(8, len(replayed.Value))], len(val), val[:4])
	}
	h.ack(replayed)
	h.expect(3)
	h.send(&proto.Get{Req: 5, Key: "k"})
	if rep := h.expect(5).(*proto.GetReply); !bytes.Equal(rep.Value, val) {
		t.Fatalf("get after replay: %d bytes", len(rep.Value))
	}
}

// TestParkedOpsOwnTheirMessages extends the rule from a parked put's
// bytes to the message itself: the runner gives a decoded message back
// to its free list (and, under PoisonPayloads, overwrites it with junk)
// once its handler returns, so a put, a delete and a move that park on a
// held-open window each park a copy. Have park keep the message it
// was handed instead and the replay answers request 0xffffffffffffffff,
// or runs the marker put that reused the struct.
func TestParkedOpsOwnTheirMessages(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   proto.Message
		// dst is the memgest the replayed op's append goes to.
		dst proto.MemgestID
	}{
		{"put", &proto.Put{Req: 3, Key: "k", Value: []byte("v2"), Memgest: 1}, 1},
		{"delete", &proto.Delete{Req: 3, Key: "k"}, 2},
		{"move", &proto.Move{Req: 3, Key: "k", Memgest: 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHandHeld(t)
			h.put(1, "k", []byte("v1"))
			h.send(&proto.Move{Req: 2, Key: "k", Memgest: 2})
			window := h.replica.nextAppend()
			h.send(tc.op)
			h.behind()
			if n := h.parked(); n != 1 {
				t.Fatalf("%d ops parked on the window, want 1", n)
			}
			h.ack(window)
			h.expect(2)
			a := h.replica.nextAppend()
			if a.Rec.Key != "k" || a.Memgest != tc.dst {
				t.Fatalf("the replayed %s appends %q to memgest %d, want \"k\" to %d", tc.name, a.Rec.Key, a.Memgest, tc.dst)
			}
			h.ack(a)
			h.expect(3)
		})
	}
}

// TestNodeOpTotalsCountEachOpOnce: a node's op totals (the ops: line of
// ringctl stats) are the sums of its memgests' counters, which count an
// operation once it is accepted. A put that parks on a move window
// counts once, when it resumes, and a put refused as too large does not
// count. Count on a handler's entry instead and the memgests say 5 puts
// where 3 were accepted.
func TestNodeOpTotalsCountEachOpOnce(t *testing.T) {
	h := newHandHeld(t)
	h.put(1, "k", []byte("v1"))
	h.send(&proto.Move{Req: 2, Key: "k", Memgest: 2})
	window := h.replica.nextAppend()
	h.send(&proto.Put{Req: 3, Key: "k", Value: []byte("v2"), Memgest: 1})
	h.behind() // the marker put: accepted, never acked
	if n := h.parked(); n != 1 {
		t.Fatalf("%d ops parked on the window, want 1", n)
	}
	h.ack(window)
	h.expect(2)
	h.ack(h.replica.nextAppend())
	h.expect(3)
	h.send(&proto.Put{Req: 4, Key: "big", Value: make([]byte, proto.MaxValue+1), Memgest: 1})
	if rep := h.reply(); rep.Request() != 4 || rep.Result() != proto.StInvalid {
		t.Fatalf("oversized put answered %#x with %v, want 4 with %v", rep.Request(), rep.Result(), proto.StInvalid)
	}
	var puts, moves uint64
	h.r.Inspect(func(n *Node) {
		for _, c := range n.MetricsSnapshot().Memgests {
			puts, moves = puts+c.Puts, moves+c.Moves
		}
	})
	if puts != 3 || moves != 1 {
		t.Fatalf("memgests count %d puts and %d moves, want 3 (v1, the marker, the resumed put) and 1", puts, moves)
	}
}

// TestWindowKeepsItsMove pins the copy of the request a window keeps:
// a configuration change replans every open window, running its move
// again from the top (replanMoves). Keep the decoded message in the
// window instead of a copy and the replan runs the junk the runner
// wrote over it. The relaunch is the same client move: its memgest
// counts one move, and the node one replan.
func TestWindowKeepsItsMove(t *testing.T) {
	h := newHandHeld(t)
	h.put(1, "k", []byte("v1"))
	h.send(&proto.Move{Req: 2, Key: "k", Memgest: 2})
	h.replica.nextAppend() // the first launch, aborted by the replan
	h.behind()
	next := h.cfg.Clone()
	next.Epoch++
	h.replica.send(coord0, &proto.ConfigPush{Config: next})
	relaunch := h.replica.nextAppend()
	if relaunch.Rec.Key != "k" || relaunch.Memgest != 2 {
		t.Fatalf("the replanned move appends %q to memgest %d, want \"k\" to 2", relaunch.Rec.Key, relaunch.Memgest)
	}
	h.ack(relaunch)
	h.expect(2)
	var snap MetricsSnapshot
	h.r.Inspect(func(n *Node) { snap = n.MetricsSnapshot() })
	if moves := snap.Memgests[2].Moves; moves != 1 || snap.MovesReplanned != 1 {
		t.Fatalf("one replanned move counts moves=%d moves_replanned=%d, want 1 and 1", moves, snap.MovesReplanned)
	}
}

// TestMoveParkedOnUncommittedVersion pins park's copy of a move held
// on an entry: a move of a key whose newest version has not committed
// waits on that version ("postponed if the requested object is not
// durable") and runs when it commits, long after its message went back
// to the free list.
func TestMoveParkedOnUncommittedVersion(t *testing.T) {
	h := newHandHeld(t)
	h.send(&proto.Put{Req: 1, Key: "k", Value: []byte("v1"), Memgest: 1})
	v1 := h.replica.nextAppend() // held: version 1 stays uncommitted
	h.send(&proto.Move{Req: 2, Key: "k", Memgest: 2})
	h.behind()
	h.ack(v1)
	h.expect(1)
	a := h.replica.nextAppend()
	if a.Rec.Key != "k" || a.Memgest != 2 {
		t.Fatalf("the parked move appends %q to memgest %d, want \"k\" to 2", a.Rec.Key, a.Memgest)
	}
	h.ack(a)
	h.expect(2)
}

// TestMoveParkedOnWant pins park's copy of a move held on a want: a
// move whose source value this coordinator lacks (a failover took it,
// and recovery has not fetched it back) waits on the want for it and
// runs once the value arrives.
func TestMoveParkedOnWant(t *testing.T) {
	h := newHandHeld(t)
	val := []byte("the value")
	h.put(1, "k", val)
	h.r.Inspect(func(n *Node) { // lose the coordinator's copy
		t := n.mg[1].coord[0].meta
		t.Hold(t.Get("k", 1), nil)
	})
	h.send(&proto.Move{Req: 2, Key: "k", Memgest: 2})
	fetch := h.replica.next(func(m proto.Message) bool { _, ok := m.(*proto.Fetch); return ok }).(*proto.Fetch)
	h.behind()
	h.replica.send(coord0, &proto.FetchReply{Req: fetch.Req, Status: proto.StOK, Data: val})
	a := h.replica.nextAppend()
	if a.Rec.Key != "k" || a.Memgest != 2 || !bytes.Equal(a.Value, val) {
		t.Fatalf("the parked move appends %q to memgest %d with %q, want \"k\" to 2 with %q", a.Rec.Key, a.Memgest, a.Value, val)
	}
	h.ack(a)
	h.expect(2)
}

// TestPrefixMoveKeepsItsRequest pins the copy a bulk move keeps: the
// aggregated reply leaves when the last key's move commits, after the
// request went back to the free list, so the bulk move holds the
// client and the request id, not the message.
func TestPrefixMoveKeepsItsRequest(t *testing.T) {
	h := newHandHeld(t)
	h.put(1, "p1", []byte("one"))
	h.put(2, "p2", []byte("two"))
	h.send(&proto.Move{Req: 3, Key: "p", Memgest: 2, Prefix: true})
	first, second := h.replica.nextAppend(), h.replica.nextAppend()
	h.behind()
	h.ack(first)
	h.ack(second)
	if rep := h.expect(3).(*proto.PutReply); rep.Moved != 2 {
		t.Fatalf("the prefix move reports %d keys moved, want 2", rep.Moved)
	}
}

// TestGetReplySurvivesPurgeInSameDrain pins the rule that no stored
// byte is read after the handler that could free it returns. A drain
// runs up to 64 packets before flush encodes anything, so the reply to
// a Get of version 1 is still an unencoded message when, later in the
// same drain, the ack that commits version 2 purges version 1 (the
// freed slot is overwritten with 0xDB under PoisonPayloads) and a put
// of another key takes the slot. The reply must carry version 1's
// bytes: sendValueReply copied them out. Hand the GetReply a view of
// the slot instead and the client reads the other key's value.
func TestGetReplySurvivesPurgeInSameDrain(t *testing.T) {
	if !PoisonPayloads {
		t.Fatal("PoisonPayloads is off: TestMain must switch it on")
	}
	cfg, err := BootConfig(ClusterSpec{Shards: 1, Redundant: 1, Memgests: []proto.Scheme{proto.Rep(2, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewMemFabric(0)
	register := func(addr string) *peer {
		ep, err := fabric.Register(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return &peer{t: t, ep: ep}
	}
	self, client, replica := register(NodeAddr(0)), register("client/t"), register(NodeAddr(1))
	// No event loop: the test decides which packets share a drain.
	r := &Runner{ep: self.ep, Host: Host{Node: New(0, cfg, Options{})}, start: time.Now()}
	drain := func(from string, msgs ...proto.Message) {
		t.Helper()
		var pkts []transport.Packet
		for _, m := range msgs {
			pkts = append(pkts, transport.Packet{From: from, Payload: proto.Encode(m)})
		}
		if !runBatch(r, pkts...) {
			t.Fatal("the node crash-stopped")
		}
	}
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, 1000) }
	isGetReply := func(m proto.Message) bool { _, ok := m.(*proto.GetReply); return ok }

	// Version 1 committed, version 2 appended and waiting for its ack.
	drain(client.ep.Addr(), &proto.Put{Req: 1, Key: "k", Value: val(1)})
	a1 := replica.nextAppend()
	drain(replica.ep.Addr(), &proto.RepAck{Memgest: a1.Memgest, Shard: a1.Shard, Seq: a1.Seq})
	drain(client.ep.Addr(), &proto.Put{Req: 2, Key: "k", Value: val(2)})
	a2 := replica.nextAppend()

	slotOf := func(key string, ver proto.Version) (slot *byte) {
		r.Inspect(func(n *Node) {
			if e := n.mg[1].coord[0].meta.Get(key, ver); e != nil {
				b, _ := e.Bytes()
				slot = &b[0]
			}
		})
		return slot
	}
	slot1 := slotOf("k", 1)

	// One drain: read version 1, commit version 2 (purging 1), reuse the slot.
	runBatch(r,
		transport.Packet{From: client.ep.Addr(), Payload: proto.Encode(&proto.Get{Req: 3, Key: "k", Version: 1})},
		transport.Packet{From: replica.ep.Addr(), Payload: proto.Encode(&proto.RepAck{Memgest: a2.Memgest, Shard: a2.Shard, Seq: a2.Seq})},
		transport.Packet{From: client.ep.Addr(), Payload: proto.Encode(&proto.Put{Req: 4, Key: "other", Value: val(3)})})

	if slotOf("k", 1) != nil {
		t.Fatal("version 1 was not purged in the drain")
	}
	if slotOf("other", 1) != slot1 {
		t.Fatal("the put of the other key did not take version 1's slot")
	}
	rep := client.next(isGetReply).(*proto.GetReply)
	if rep.Status != proto.StOK || rep.Version != 1 || !bytes.Equal(rep.Value, val(1)) {
		t.Fatalf("get of version 1 answered %v version %d with %d bytes of %#x, want 1000 of 0x01",
			rep.Status, rep.Version, len(rep.Value), rep.Value[:min(1, len(rep.Value))])
	}
}

// TestRepliesSurviveEvacuationInSameDrain extends that rule to stored
// bytes that move: a free may evacuate a chunk of the table (see
// store's arena), which copies the values of other keys elsewhere and,
// under PoisonPayloads, overwrites the whole chunk with 0xDB. A get
// reply, a FetchReply and the value a move reads out of its source
// memgest are all still unencoded messages when, later in the same
// drain, the ack that commits another key's version 2 purges its version
// 1, the freed slots reach the arena's threshold and the chunk the three
// values sit in is emptied. Each must carry its key's bytes — every
// reader copied them out — and a get after the purge, in the same drain,
// must find them where they went.
func TestRepliesSurviveEvacuationInSameDrain(t *testing.T) {
	if !PoisonPayloads {
		t.Fatal("PoisonPayloads is off: TestMain must switch it on")
	}
	cfg, err := BootConfig(ClusterSpec{
		Shards: 1, Redundant: 1,
		Memgests: []proto.Scheme{proto.Rep(2, 1), proto.Rep(2, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewMemFabric(0)
	register := func(addr string) *peer {
		ep, err := fabric.Register(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return &peer{t: t, ep: ep}
	}
	self, client, replica := register(NodeAddr(0)), register("client/t"), register(NodeAddr(1))
	// No event loop: the test decides which packets share a drain.
	node := New(0, cfg, Options{})
	r := &Runner{ep: self.ep, Host: Host{Node: node}, start: time.Now()}
	drain := func(pkts ...transport.Packet) {
		t.Helper()
		if !runBatch(r, pkts...) {
			t.Fatal("the node crash-stopped")
		}
	}
	from := func(p *peer, m proto.Message) transport.Packet {
		return transport.Packet{From: p.ep.Addr(), Payload: proto.Encode(m)}
	}
	ackOf := func(a *proto.RepAppend) transport.Packet {
		return from(replica, &proto.RepAck{Memgest: a.Memgest, Shard: a.Shard, Seq: a.Seq})
	}
	const size = 1000 // 64 slots of 1 KiB to a 64 KiB chunk
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }

	// The first five slots of the table's first chunk: three committed
	// keys, and a fourth with version 1 committed and version 2 waiting.
	for i, key := range []string{"get", "fetch", "move", "k"} {
		drain(from(client, &proto.Put{Req: proto.ReqID(i + 1), Key: key, Value: val(byte(i + 1)), Memgest: 1}))
		drain(ackOf(replica.nextAppend()))
	}
	drain(from(client, &proto.Put{Req: 5, Key: "k", Value: val(5), Memgest: 1}))
	k2 := replica.nextAppend()

	// Fill that chunk and six more behind the protocol's back, then free
	// slots until one more makes four chunks' worth: every filler of the
	// first chunk, so that it is the sparsest, and 40 of each of the next
	// five less one.
	table := node.mg[1].coord[0].meta
	filler := func(i int) string { return "filler" + string(rune('0'+i/64)) + string(rune('0'+i%64)) }
	for i := 5; i < 7*64; i++ {
		e := table.Put(&store.Entry{Rec: proto.MetaRecord{Key: filler(i), Version: 1, Length: size}})
		table.Hold(e, val(0xF1))
	}
	freed := 0
	for i := 5; i < 6*64 && freed < 4*64-1; i++ {
		if i < 64 || i%64 < 40 {
			table.Delete(filler(i), 1)
			freed++
		}
	}
	if freed != 4*64-1 || table.ValueMoves() != (store.ValueMoves{}) {
		t.Fatalf("%d slots freed, %+v: want one short of an evacuation", freed, table.ValueMoves())
	}
	view := func(key string) []byte {
		b, _ := table.Get(key, 1).Bytes()
		return b
	}
	before := view("get")

	// One drain: the three reads, the purge that evacuates, a read after.
	drain(
		from(client, &proto.Get{Req: 6, Key: "get"}),
		from(replica, &proto.Fetch{Req: 7, Memgest: 1, Shard: 0, Key: "fetch", Version: 1}),
		from(client, &proto.Move{Req: 8, Key: "move", Memgest: 2}),
		ackOf(k2),
		from(client, &proto.Get{Req: 9, Key: "get"}),
	)

	if got := table.ValueMoves(); got.ChunksReleased != 1 || got.SlotsRelocated != 4 {
		t.Fatalf("the purge of k's version 1 moved %+v, want the first chunk's four values", got)
	}
	if after := view("get"); &after[0] == &before[0] || !bytes.Equal(before, bytes.Repeat([]byte{0xDB}, size)) {
		t.Fatalf("the value of \"get\" did not move, or the chunk it left reads %#x, not poison", before[0])
	}
	for _, req := range []proto.ReqID{6, 9} {
		rep := client.next(func(m proto.Message) bool { _, ok := m.(*proto.GetReply); return ok }).(*proto.GetReply)
		if rep.Req != req || rep.Status != proto.StOK || !bytes.Equal(rep.Value, val(1)) {
			t.Fatalf("get %d answered req %d %v with %d bytes of %#x, want %d of 0x01", req, rep.Req, rep.Status, len(rep.Value), rep.Value[:min(1, len(rep.Value))], size)
		}
	}
	fetched := replica.next(func(m proto.Message) bool { _, ok := m.(*proto.FetchReply); return ok }).(*proto.FetchReply)
	if fetched.Status != proto.StOK || !bytes.Equal(fetched.Data, val(2)) {
		t.Fatalf("data fetch answered %v with %d bytes of %#x, want %d of 0x02", fetched.Status, len(fetched.Data), fetched.Data[:min(1, len(fetched.Data))], size)
	}
	if moved := replica.nextAppend(); moved.Memgest != 2 || moved.Rec.Key != "move" || !bytes.Equal(moved.Value, val(3)) {
		t.Fatalf("the move's destination append is for %q in memgest %d with %d bytes of %#x, want %d of 0x03", moved.Rec.Key, moved.Memgest, len(moved.Value), moved.Value[:min(1, len(moved.Value))], size)
	}
}

// TestStaleEntryPointerIsCaught extends the poison to metadata. Entries
// live in slab slots of their shard's index, so a *store.Meta kept past
// the Delete that freed it points at a slot the next put takes: without
// the poison it would go on reading as the purged version, plausibly,
// and then as another key's record. A handler that holds an entry
// across a step that may purge it — commitEntry holds one across
// gcKey — and reads it afterwards reads 0xDB under PoisonPayloads, in
// every field, and no test of its output passes by luck; its key, which
// the index keeps, is not read at all: Key refuses a free slot.
func TestStaleEntryPointerIsCaught(t *testing.T) {
	if !PoisonPayloads {
		t.Fatal("PoisonPayloads is off: TestMain must switch it on")
	}
	h := newHarness(t, figure3Spec())
	h.put("k", []byte("one"), mgREP3)
	n, _ := h.coordinatorOf("k")
	table := n.mg[mgREP3].coord[n.shardOf("k")].meta
	stale := table.Get("k", 1)
	if stale == nil || table.Key(stale) != "k" || !stale.Committed() {
		t.Fatalf("version 1 before it is purged: %+v", stale)
	}
	h.put("k", []byte("two"), mgREP3) // commits version 2 and purges version 1
	if table.Get("k", 1) != nil {
		t.Fatal("version 1 was not purged")
	}
	if b, _ := stale.Bytes(); stale.Version != 0xDBDBDBDBDBDBDBDB || stale.Memgest != 0xDBDBDBDB || stale.Seq != 0xDBDBDBDBDBDBDBDB ||
		stale.Length != 0xDBDBDBDB || b != nil {
		t.Fatalf("an entry read after the purge that freed it reads %+v, want 0xDB throughout", *stale)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the key of an entry read after the purge that freed it was read")
			}
		}()
		table.Key(stale)
	}()
	// The slot is the next entry's, of any key in any table of the shard.
	var other string
	for i := 0; other == ""; i++ {
		if k := "other" + string(rune('a'+i)); n.coordinates(n.shardOf(k)) && n.shardOf(k) == n.shardOf("k") {
			other = k
		}
	}
	h.put(other, []byte("three"), mgSRS32)
	if got := n.mg[mgSRS32].coord[n.shardOf("k")].meta.Get(other, 1); got != stale {
		t.Fatalf("the put of %q took the slot at %p, not the freed one at %p", other, got, stale)
	}
}

// TestMetadataGatherKeepsItsReplies pins the copy a metadata gather
// keeps: a spare handed a shard asks both replicas for the shard's
// metadata and merges the answers once the last one is in, one batch
// after the host gave the first answer's message back (and, under
// PoisonPayloads, wrote junk over it). Keep the received message
// instead of a copy and the first replica's records are lost.
func TestMetadataGatherKeepsItsReplies(t *testing.T) {
	if !PoisonPayloads {
		t.Fatal("PoisonPayloads is off: TestMain must switch it on")
	}
	cfg, err := BootConfig(ClusterSpec{Shards: 1, Redundant: 2, Spares: 1, Memgests: []proto.Scheme{proto.Rep(3, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	h := &Host{Node: New(3, cfg.Clone(), Options{})}
	var fetches []*proto.MetaFetch
	batch := func(from string, m proto.Message) {
		t.Helper()
		h.Deliver(0, from, proto.Encode(m))
		outs, err := h.Node.Flush()
		if err != nil {
			t.Fatal(err)
		}
		h.Pack(outs, func(_ string, pkt []byte) error {
			return proto.ForEachPacked(pkt, func(enc []byte) error {
				if f, err := proto.Decode(enc); err == nil && f.Type() == proto.TMetaFetch {
					fetches = append(fetches, f.(*proto.MetaFetch))
				}
				return nil
			})
		})
	}
	// Node 3 takes over coordinator 0's shard.
	next := cfg.Clone()
	next.Epoch, next.Leader, next.Coords, next.Spares = 2, 1, []proto.NodeID{3}, nil
	batch(NodeAddr(1), &proto.ConfigPush{Config: next})
	if len(fetches) != 2 {
		t.Fatalf("the new coordinator asked %d replicas for metadata, want 2", len(fetches))
	}
	for i, key := range []string{"a", "b"} {
		batch(NodeAddr(proto.NodeID(i+1)), &proto.MetaFetchReply{
			Req: fetches[0].Req, Status: proto.StOK, Memgest: 1, Shard: 0, Seq: 1,
			Recs: []proto.MetaRecord{{Key: key, Version: 1, Memgest: 1, Committed: true, Length: 1}},
		})
	}
	for _, key := range []string{"a", "b"} {
		if h.Node.mg[1].coord[0].meta.Get(key, 1) == nil {
			t.Errorf("the recovered table lacks %q", key)
		}
	}
}
