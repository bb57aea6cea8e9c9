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
		pkt, err := p.ep.Recv()
		if err != nil {
			p.t.Fatal(err)
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

func (p *peer) nextAppend() *proto.RepAppend {
	p.t.Helper()
	return p.next(func(m proto.Message) bool { _, ok := m.(*proto.RepAppend); return ok }).(*proto.RepAppend)
}

// TestParkedPutOwnsItsValue pins the ownership rule at the park site: a
// put that parks on an open move window outlives the packet it arrived
// in, so it must own a copy of its value. The runner recycles the
// packet (and, under PoisonPayloads, overwrites it with 0xDB) as soon
// as the parking handler returns; when the window closes the replayed
// put must still carry the client's bytes. Remove the copy in
// parkOnMove and the replica below receives 16 KiB of 0xDB.
func TestParkedPutOwnsItsValue(t *testing.T) {
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
	// Node 0 is real; its one replica, node 1, is played by the test. No
	// timer traffic: every packet below is caused by the test.
	fabric := transport.NewMemFabric(0)
	r, err := StartRunner(New(0, cfg, Options{HeartbeatEvery: time.Minute, FailAfter: 10 * time.Minute}), fabric, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	register := func(addr string) *peer {
		ep, err := fabric.Register(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return &peer{t: t, ep: ep}
	}
	client, replica := register("client/t"), register(NodeAddr(1))
	coord := NodeAddr(0)
	ack := func(a *proto.RepAppend) {
		replica.send(coord, &proto.RepAck{Memgest: a.Memgest, Shard: a.Shard, Seq: a.Seq})
	}
	isReply := func(m proto.Message) bool {
		switch m.(type) {
		case *proto.PutReply, *proto.MoveReply, *proto.GetReply:
			return true
		}
		return false
	}

	client.send(coord, &proto.Put{Req: 1, Key: "k", Value: []byte("v1"), Memgest: 1})
	ack(replica.nextAppend())
	if rep := client.next(isReply).(*proto.PutReply); rep.Status != proto.StOK {
		t.Fatalf("put: %v", rep.Status)
	}

	// Open the window and hold it: the destination append stays unacked.
	client.send(coord, &proto.Move{Req: 2, Key: "k", Memgest: 2})
	moveAppend := replica.nextAppend()
	if moveAppend.Memgest != 2 {
		t.Fatalf("move's destination append went to memgest %d", moveAppend.Memgest)
	}

	// The put parks. The runner handles packets in order, so once the
	// marker put behind it has reached the replica, the parked put's
	// packet has been consumed and recycled.
	val := bytes.Repeat([]byte("park"), 4<<10)
	client.send(coord, &proto.Put{Req: 3, Key: "k", Value: val, Memgest: 1})
	client.send(coord, &proto.Put{Req: 4, Key: "marker", Value: []byte("m"), Memgest: 1})
	if a := replica.nextAppend(); a.Rec.Key != "marker" {
		t.Fatalf("append for %q while the put should be parked", a.Rec.Key)
	}
	var parked int
	r.Inspect(func(n *Node) {
		for _, mv := range n.moving {
			parked += len(mv.parked)
		}
	})
	if parked != 1 {
		t.Fatalf("%d ops parked on the window, want 1", parked)
	}

	// Close the window: the move commits and the parked put replays.
	ack(moveAppend)
	if rep := client.next(isReply).(*proto.MoveReply); rep.Status != proto.StOK {
		t.Fatalf("move: %v", rep.Status)
	}
	replayed := replica.nextAppend()
	if replayed.Rec.Key != "k" || !bytes.Equal(replayed.Value, val) {
		t.Fatalf("replayed put carries %d bytes starting %x, want the client's %d bytes of %q",
			len(replayed.Value), replayed.Value[:min(8, len(replayed.Value))], len(val), val[:4])
	}
	ack(replayed)
	if rep := client.next(isReply).(*proto.PutReply); rep.Req != 3 || rep.Status != proto.StOK {
		t.Fatalf("replayed put: %+v", rep)
	}
	client.send(coord, &proto.Get{Req: 5, Key: "k"})
	if rep := client.next(isReply).(*proto.GetReply); rep.Status != proto.StOK || !bytes.Equal(rep.Value, val) {
		t.Fatalf("get after replay: %v, %d bytes", rep.Status, len(rep.Value))
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
	r := &Runner{ep: self.ep, node: New(0, cfg, Options{}), start: time.Now()}
	drain := func(from string, msgs ...proto.Message) {
		t.Helper()
		packets := make(chan transport.Packet, len(msgs))
		for _, m := range msgs[1:] {
			packets <- transport.Packet{From: from, Payload: proto.Encode(m)}
		}
		if !r.drain(transport.Packet{From: from, Payload: proto.Encode(msgs[0])}, packets) {
			t.Fatal("drain reported a closed inbox")
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
	packets := make(chan transport.Packet, 2)
	packets <- transport.Packet{From: replica.ep.Addr(), Payload: proto.Encode(&proto.RepAck{Memgest: a2.Memgest, Shard: a2.Shard, Seq: a2.Seq})}
	packets <- transport.Packet{From: client.ep.Addr(), Payload: proto.Encode(&proto.Put{Req: 4, Key: "other", Value: val(3)})}
	r.drain(transport.Packet{From: client.ep.Addr(), Payload: proto.Encode(&proto.Get{Req: 3, Key: "k", Version: 1})}, packets)

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
	r := &Runner{ep: self.ep, node: node, start: time.Now()}
	drain := func(pkts ...transport.Packet) {
		t.Helper()
		rest := make(chan transport.Packet, len(pkts))
		for _, p := range pkts[1:] {
			rest <- p
		}
		if !r.drain(pkts[0], rest) {
			t.Fatal("drain reported a closed inbox")
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
// live in slab slots of their shard's index, so a *store.Entry kept past
// the Delete that freed it points at a slot the next put takes: without
// the poison it would go on reading as the purged version, plausibly,
// and then as another key's record. A handler that holds an entry
// across a step that may purge it — commitEntry holds one across
// gcKey — and reads it afterwards reads 0xDB under PoisonPayloads, in
// every field, and no test of its output passes by luck.
func TestStaleEntryPointerIsCaught(t *testing.T) {
	if !PoisonPayloads {
		t.Fatal("PoisonPayloads is off: TestMain must switch it on")
	}
	h := newHarness(t, figure3Spec())
	h.put("k", []byte("one"), mgREP3)
	n, _ := h.coordinatorOf("k")
	table := n.mg[mgREP3].coord[n.shardOf("k")].meta
	stale := table.Get("k", 1)
	if stale == nil || stale.Rec.Key != "k" || !stale.Rec.Committed {
		t.Fatalf("version 1 before it is purged: %+v", stale)
	}
	h.put("k", []byte("two"), mgREP3) // commits version 2 and purges version 1
	if table.Get("k", 1) != nil {
		t.Fatal("version 1 was not purged")
	}
	if b, _ := stale.Bytes(); stale.Rec.Version != 0xDBDBDBDBDBDBDBDB || stale.Rec.Memgest != 0xDBDBDBDB || stale.Seq != 0xDBDBDBDBDBDBDBDB ||
		stale.Rec.Key != "\xDB\xDB\xDB\xDB\xDB\xDB\xDB\xDB" || b != nil {
		t.Fatalf("an entry read after the purge that freed it reads %+v, want 0xDB throughout", stale.Rec)
	}
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
