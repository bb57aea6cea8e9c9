package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/wal"
)

// rolesSpec is a cluster built to survive one failure: 3 coordinators
// (0-2), 2 redundancy nodes (3, 4) behind Rep(3,3) and SRS(2,1,3) —
// node 3 is the SRS memgest's only parity node — and one spare (5).
func rolesSpec() ClusterSpec {
	return ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(2, 1, 3)},
		Opts:     Options{BlockSize: 4096, HeartbeatEvery: 10 * time.Millisecond, FailAfter: 50 * time.Millisecond},
	}
}

const (
	rolesRep proto.MemgestID = 1
	rolesSRS proto.MemgestID = 2
)

// resize runs an operator's join or leave through the leader.
func (h *harness) resize(op proto.ResizeOp, node proto.NodeID) {
	h.t.Helper()
	h.send("client/t", 0, &proto.Resize{Req: 9, Op: op, Node: node})
	h.run()
	if r, ok := h.lastReply("client/t").(*proto.ResizeReply); !ok || r.Status != proto.StOK {
		h.t.Fatalf("resize %v of node %d: %+v", op, node, r)
	}
	if !h.tickUntil(time.Millisecond, 500, func() bool {
		for id := range h.nodes {
			if !h.dead[id] && !h.recovered(id) {
				return false
			}
		}
		return true
	}) {
		h.t.Fatalf("cluster did not settle after resize %v of node %d", op, node)
	}
}

// holdings is what a node keeps in memory over every role it plays.
type holdings struct{ entries, valueBacked, parityBacked uint64 }

func (h *harness) holdings(id proto.NodeID) holdings {
	s := h.nodes[id].MetricsSnapshot()
	out := holdings{entries: s.MetaEntries}
	for _, c := range s.Memgests {
		out.valueBacked += c.ValueBytesBacked
		out.parityBacked += c.ParityBytesBacked
	}
	return out
}

// putBoth writes count keys into each memgest and records what was
// acknowledged.
func (h *harness) putBoth(prefix string, count int, acked map[string][]byte) {
	h.t.Helper()
	for _, mg := range []proto.MemgestID{rolesRep, rolesSRS} {
		for i := 0; i < count; i++ {
			key := fmt.Sprintf("%s-%d-%d", prefix, mg, i)
			val := []byte("value of " + key)
			if r := h.put(key, val, mg); r.Status != proto.StOK {
				h.t.Fatalf("put %q: %v", key, r.Status)
			}
			acked[key] = val
		}
	}
}

// TestRegainedRoleRecovers: a redundancy node leaves, writes go on
// without it, and it is handed the same roles back. What it held when
// it left is gone from memory and disk, what it holds after is its
// predecessor's state recovered from the group, and one more failure —
// the coordinator whose SRS shard only this node backs — loses nothing
// that was acknowledged.
func TestRegainedRoleRecovers(t *testing.T) {
	h := newHarness(t, rolesSpec())
	fs3 := wal.NewMemFS()
	d, err := replog.OpenDurable(fs3, replog.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h.nodes[3].SetDurable(d)

	acked := make(map[string][]byte)
	h.putBoth("before", 9, acked)
	before := h.holdings(3)
	if before.entries != 18 || before.valueBacked == 0 || before.parityBacked == 0 {
		t.Fatalf("node 3 before it leaves: %+v", before)
	}

	// The fence reaches node 3 before anyone else learns of the change,
	// so a view of a value it held reads as freed memory (TestMain
	// poisons it) by the time the next message is delivered.
	var view []byte
	for _, rt := range h.nodes[3].mg[rolesRep].rmeta {
		if recs := rt.RecordsSince(0); len(recs) > 0 {
			view, _ = rt.Get(recs[0].Key, recs[0].Version).Bytes()
		}
	}
	pushed, freed := false, false
	h.observe = func(m routedMsg) {
		if pushed && !freed {
			freed = len(view) > 0 && bytes.Equal(view, bytes.Repeat([]byte{0xDB}, len(view)))
			h.observe = nil
		}
		_, push := m.msg.(*proto.ConfigPush)
		pushed = pushed || push && m.to == NodeAddr(3)
	}
	h.resize(proto.ResizeLeave, 3)
	if got := h.holdings(3); got != (holdings{}) {
		t.Fatalf("node 3 left and still holds %+v", got)
	}
	if !freed {
		t.Fatalf("node 3 left and the memory behind its values was not given back: %q", view)
	}
	// A later life must find nothing of the shards on disk either.
	if err := h.nodes[3].CloseDurable(); err != nil {
		t.Fatal(err)
	}
	if d, err = replog.OpenDurable(fs3, replog.DurableOptions{}); err != nil {
		t.Fatal(err)
	}
	if stash := d.Recovered(); len(stash) != 0 {
		t.Fatalf("node 3 left and its disk still recovers %d shards", len(stash))
	}
	h.nodes[3].SetDurable(d)

	h.putBoth("while-out", 9, acked)
	predecessor := h.holdings(5)
	if predecessor.entries != 36 {
		t.Fatalf("substitute holds %d entries, want 36", predecessor.entries)
	}

	h.resize(proto.ResizeJoin, 3)
	h.resize(proto.ResizeLeave, 5)
	if got := h.nodes[3].Stats.MetaRecovs; got != 6 {
		t.Fatalf("node 3 regained six redundancy roles with %d metadata recoveries", got)
	}
	if got := h.holdings(3).entries; got != predecessor.entries {
		t.Fatalf("node 3 holds %d entries, its predecessor held %d", got, predecessor.entries)
	}
	h.checkParityInvariant()

	h.resize(proto.ResizeJoin, 5)
	h.kill(1)
	if !h.tickUntil(time.Millisecond, 1000, func() bool {
		return h.nodes[0].cfg.Coords[1] == 5 && h.recovered(5)
	}) {
		t.Fatal("spare did not take over the killed coordinator's shard")
	}
	for key, val := range acked {
		if r := h.get(key); r.Status != proto.StOK || !bytes.Equal(r.Value, val) {
			t.Errorf("acknowledged %q reads back %v %q", key, r.Status, r.Value)
		}
	}
}

// TestEarlyAppendDoesNotStandInForRecovery: replication traffic that
// reaches a spare before the configuration that promotes it — the
// coordinator installed it first — is not a role. The spare stores
// nothing and acknowledges nothing, and when the roles do arrive it
// recovers every one of them.
func TestEarlyAppendDoesNotStandInForRecovery(t *testing.T) {
	h := newHarness(t, rolesSpec())
	acked := make(map[string][]byte)
	h.putBoth("k", 15, acked)
	want := h.holdings(3).entries
	if want != 30 {
		t.Fatalf("node 3 holds %d entries, want 30", want)
	}

	spare := h.nodes[5]
	for shard := uint32(0); shard < 3; shard++ {
		from := NodeAddr(proto.NodeID(shard))
		early := []proto.Message{
			&proto.RepAppend{Memgest: rolesRep, Shard: shard, Seq: 1000,
				Rec: proto.MetaRecord{Key: "early", Version: 1, Memgest: rolesRep, Length: 5}, Value: []byte("early")},
			&proto.ParityUpdate{Memgest: rolesSRS, Shard: shard, Seq: 1000,
				Rec: proto.MetaRecord{Key: "early", Version: 1, Memgest: rolesSRS}},
		}
		for _, msg := range early {
			if outs := spare.deliver(h.now, from, msg); len(outs) != 0 {
				t.Fatalf("a spare answered %T with %T", msg, outs[0].Msg)
			}
		}
	}
	if got := h.holdings(5); got != (holdings{}) {
		t.Fatalf("a spare stored replication traffic: %+v", got)
	}

	h.resize(proto.ResizeLeave, 3)
	if got := spare.Stats.MetaRecovs; got != 6 {
		t.Fatalf("substitute took six redundancy roles with %d metadata recoveries", got)
	}
	if got := h.holdings(5).entries; got != want {
		t.Fatalf("substitute holds %d entries, its predecessor held %d", got, want)
	}
}
