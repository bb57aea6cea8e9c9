package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ring/internal/proto"
)

// emptyHanded reports whether the node wants nothing, by any index of
// the table, and gathers nothing.
func (n *Node) emptyHanded() bool {
	return len(n.wants.at) == 0 && n.wants.order.Len() == 0 && len(n.wants.byReq) == 0 && len(n.gathers) == 0
}

// emptyHanded fails the test unless every live node wants nothing and
// gathers nothing: on a quiesced cluster anything left is a leak.
func (h *harness) emptyHanded() {
	h.t.Helper()
	for id, n := range h.nodes {
		if h.dead[id] {
			continue
		}
		if !n.emptyHanded() {
			h.t.Fatalf("node %d is left with %d wants (%d in order, %d by request) and %d gathers",
				id, len(n.wants.at), n.wants.order.Len(), len(n.wants.byReq), len(n.gathers))
		}
		if s := n.MetricsSnapshot(); s.RecoveryBacklog != 0 || s.ShardsRecovering != 0 || s.ShardsDegraded != 0 {
			h.t.Fatalf("node %d reports backlog %d, %d shards recovering, %d degraded", id, s.RecoveryBacklog, s.ShardsRecovering, s.ShardsDegraded)
		}
	}
}

// failOver writes keys of shard 1 into SRS(3,2,3) and Rep(3,3), kills
// their coordinator and returns them once the leader has replaced it.
func failOver(t *testing.T, h *harness) map[string][]byte {
	keys := map[string][]byte{}
	for i := 0; len(keys) < 40; i++ {
		key := fmt.Sprintf("lf-%d", i)
		if _, id := h.coordinatorOf(key); id != 1 {
			continue
		}
		keys[key] = bytes.Repeat([]byte{byte(i + 1)}, 60)
		if r := h.put(key, keys[key], []proto.MemgestID{mgSRS32, mgREP3}[len(keys)%2]); r.Status != proto.StOK {
			t.Fatalf("put %s: %v", key, r.Status)
		}
	}
	h.kill(1)
	if !h.tickUntil(10*time.Millisecond, 100, func() bool { return h.config().Coords[1] != 1 }) {
		t.Fatal("leader did not replace the dead coordinator")
	}
	return keys
}

// TestRecoverySurvivesLostFetches: the network loses the first one or
// four messages of one kind of a coordinator failover's data recovery.
// Every want is asked again until it is met, so recovery completes,
// every key reads back byte for byte, and nothing is left behind on any
// node — not on the parity node whose gather lost a block either.
func TestRecoverySurvivesLostFetches(t *testing.T) {
	isParity := func(addr string) bool { return addr == NodeAddr(3) || addr == NodeAddr(4) }
	kinds := []struct {
		name string
		is   func(routedMsg) bool
	}{
		{"decode ask", func(m routedMsg) bool {
			f, ok := m.msg.(*proto.Fetch)
			return ok && f.Memgest == mgSRS32 && isParity(m.to)
		}},
		{"decode answer", func(m routedMsg) bool {
			_, ok := m.msg.(*proto.FetchReply)
			return ok && isParity(m.from) && !isParity(m.to)
		}},
		{"block fetch", func(m routedMsg) bool {
			f, ok := m.msg.(*proto.Fetch)
			return ok && f.Memgest == mgSRS32 && !isParity(m.to)
		}},
		{"value fetch", func(m routedMsg) bool {
			f, ok := m.msg.(*proto.Fetch)
			return ok && f.Memgest == mgREP3
		}},
		{"any answer", func(m routedMsg) bool {
			_, ok := m.msg.(*proto.FetchReply)
			return ok
		}},
	}
	for _, kind := range kinds {
		for _, lose := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s x%d", kind.name, lose), func(t *testing.T) {
				h := newHarness(t, figure3Spec())
				lost := 0
				h.drop = func(m routedMsg) bool {
					if lost < lose && kind.is(m) {
						lost++
						return true
					}
					return false
				}
				keys := failOver(t, h)
				all := func() bool {
					for id := range h.nodes {
						if !h.dead[id] && !h.recovered(id) {
							return false
						}
					}
					return true
				}
				if !h.tickUntil(10*time.Millisecond, 600, all) {
					n := h.nodes[h.config().Coords[1]]
					t.Fatalf("recovery never completed after %d lost: the new coordinator still wants %d", lost, len(n.wants.at))
				}
				if lost != lose {
					t.Fatalf("the network lost %d messages, the case wants %d", lost, lose)
				}
				for key, val := range keys {
					if g := h.get(key); g.Status != proto.StOK || !bytes.Equal(g.Value, val) {
						t.Fatalf("key %s after recovery: %v, %d bytes", key, g.Status, len(g.Value))
					}
				}
				h.checkParityInvariant()
				h.emptyHanded()
				var reasks uint64
				for _, n := range h.nodes {
					reasks += n.MetricsSnapshot().RecoveryReasks
				}
				if reasks == 0 {
					t.Fatal("messages were lost and core.recovery_reasks is 0")
				}
			})
		}
	}
}

// TestLostRoleForgetsItsWants: the replacement coordinator is degraded —
// its metadata is in, no block or value yet, a get parked on a block —
// when the leader takes the shard away again. Nothing of the role stays
// behind: no want, no parked request (the get is bounced to retry), no
// recovering or degraded shard. And a node whose only open metadata want
// is a replica role's keeps answering for the shard it coordinates.
func TestLostRoleForgetsItsWants(t *testing.T) {
	h := newHarness(t, figure3Spec())
	// Whoever holds shard 1 also gets the replica role of Rep(4,3) shard
	// 0: that role's metadata never arrives, nor does any byte.
	replicaMeta := func(m routedMsg) bool {
		r, ok := m.msg.(*proto.MetaFetchReply)
		return ok && r.Memgest == mgREP4 && r.Shard == 0
	}
	h.drop = func(m routedMsg) bool { _, ok := m.msg.(*proto.FetchReply); return ok || replicaMeta(m) }
	keys := failOver(t, h)
	coord := h.config().Coords[1]
	n := h.nodes[coord]
	if !h.tickUntil(10*time.Millisecond, 100, func() bool { return !n.recovering(1) }) {
		t.Fatal("replacement never got its metadata")
	}
	if s := n.MetricsSnapshot(); s.ShardsRecovering != 0 || s.ShardsDegraded != 1 || s.RecoveryBacklog == 0 {
		t.Fatalf("replacement without its bytes reports %d recovering, %d degraded, backlog %d", s.ShardsRecovering, s.ShardsDegraded, s.RecoveryBacklog)
	}
	var srsKey string
	for key := range keys {
		if h.memgestOf(key) == mgSRS32 && (srsKey == "" || key < srsKey) {
			srsKey = key
		}
	}
	h.send("client/p", coord, &proto.Get{Req: 77, Key: srsKey})
	h.run()
	if len(h.replies("client/p")) != 0 {
		t.Fatalf("get of a block not yet decoded was answered: %+v", h.replies("client/p"))
	}

	h.send("client/r", h.config().Leader, &proto.Resize{Req: 9, Op: proto.ResizeLeave, Node: coord})
	h.run()
	if !h.tickUntil(10*time.Millisecond, 100, func() bool { return !holdsRole(n.cfg, coord) }) {
		t.Fatalf("node %d never left (config %+v)", coord, n.cfg)
	}
	if g, ok := h.lastReply("client/p").(*proto.GetReply); !ok || g.Req != 77 || g.Status != proto.StRetry {
		t.Fatalf("parked get was answered %+v, want StRetry", g)
	}
	if !n.emptyHanded() {
		t.Fatalf("node %d lost its roles and still wants %d", coord, len(n.wants.at))
	}
	if s := n.MetricsSnapshot(); !n.Serving() || s.ShardsRecovering != 0 || s.ShardsDegraded != 0 {
		t.Fatalf("node %d lost its roles and reports %+v", coord, s)
	}

	// With only the replica role's metadata outstanding the next holder
	// of shard 1 serves.
	h.drop = replicaMeta
	next := h.config().Coords[1]
	n = h.nodes[next]
	replicaOnly := func() bool {
		if len(n.wants.at) == 0 {
			return false
		}
		for id := range n.wants.at {
			if id.what != wantMeta || id.role.kind != roleReplica {
				return false
			}
		}
		return true
	}
	if !h.tickUntil(10*time.Millisecond, 600, replicaOnly) {
		t.Fatalf("node %d never got down to its replica role's metadata (%d wants)", next, len(n.wants.at))
	}
	for key, val := range keys {
		if g := h.get(key); g.Status != proto.StOK || !bytes.Equal(g.Value, val) {
			t.Fatalf("get %s on a coordinator whose replica role is recovering: %v", key, g.Status)
		}
	}
	h.drop = nil
	if !h.tickUntil(10*time.Millisecond, 600, func() bool { return h.recovered(next) }) {
		t.Fatal("the replica role never recovered")
	}
	h.emptyHanded()
}

// TestShardsRecoveringGauge: core.shards_recovering reads 1 on the
// replacement coordinator while its metadata is on the way and 0 once
// it is in.
func TestShardsRecoveringGauge(t *testing.T) {
	h := newHarness(t, figure3Spec())
	var during int64 = -1
	h.observe = func(m routedMsg) {
		if _, ok := m.msg.(*proto.MetaFetch); ok && m.from == NodeAddr(5) && during < 0 {
			during = h.nodes[5].MetricsSnapshot().ShardsRecovering
		}
	}
	failOver(t, h)
	if !h.tickUntil(10*time.Millisecond, 200, func() bool { return h.recovered(5) }) {
		t.Fatal("replacement never finished recovery")
	}
	if after := h.nodes[5].MetricsSnapshot().ShardsRecovering; during != 1 || after != 0 {
		t.Fatalf("core.shards_recovering went %d -> %d over a failover, want 1 -> 0", during, after)
	}
}
