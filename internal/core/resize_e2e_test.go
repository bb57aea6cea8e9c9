package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
)

func (c *durClient) resize(addr string, req proto.ReqID, op proto.ReconfigOp, node proto.NodeID) *proto.ReconfigReply {
	c.t.Helper()
	m := c.rpc(addr, &proto.Reconfig{Req: req, Op: op, Node: node}, func(m proto.Message) bool {
		r, ok := m.(*proto.ReconfigReply)
		return ok && r.Req == req
	})
	return m.(*proto.ReconfigReply)
}

// TestResizeLeaveJoinMinimalMovement drives a graceful leave of a
// coordinator and a join re-admitting it, asserting the protocol's
// minimal-movement contract: leave moves exactly the placement slots
// the departing node held (reported by the reply and the ShardsMoved
// counter), join moves zero.
func TestResizeLeaveJoinMinimalMovement(t *testing.T) {
	// Failure detection is effectively off so only the resize protocol
	// reassigns roles.
	spec := ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 2,
		Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(2, 1, 3)},
		Opts: Options{
			BlockSize:      16 << 10,
			HeartbeatEvery: 20 * time.Millisecond,
			FailAfter:      10 * time.Minute,
		},
		TickEvery: 2 * time.Millisecond,
	}
	cl, err := StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := newDurClient(t, cl)

	// Data on every shard so availability across the resize is checked.
	want := make(map[string][]byte)
	for i := 0; i < 9; i++ {
		key := fmt.Sprintf("rsz-key-%d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		c.put(NodeAddr(cl.Cfg.CoordinatorOf(store.KeyHash(key))), proto.ReqID(i+1), key, val)
		want[key] = val
	}

	leader := cl.Cfg.Leader
	var victim proto.NodeID = proto.NilNode
	for _, id := range cl.Cfg.Coords {
		if id != leader {
			victim = id
			break
		}
	}
	// The slots the victim holds are exactly what a minimal leave moves.
	held := uint32(0)
	for _, id := range cl.Cfg.Coords {
		if id == victim {
			held++
		}
	}
	for _, id := range cl.Cfg.Redundant {
		if id == victim {
			held++
		}
	}
	for i := range cl.Cfg.Memgests {
		for _, id := range cl.Cfg.Memgests[i].Redundant {
			if id == victim {
				held++
			}
		}
	}

	r := c.resize(NodeAddr(leader), 100, proto.ReconfigLeave, victim)
	if r.Status != proto.StOK {
		t.Fatalf("leave: %v", r.Status)
	}
	if r.Moved != held {
		t.Fatalf("leave moved %d slots, want the %d the node held", r.Moved, held)
	}
	var shardsMoved uint64
	var cfgAfter *proto.Config
	cl.Runs[leader].Inspect(func(n *Node) {
		shardsMoved = n.Metrics.ShardsMoved.Load()
		cfgAfter = n.Config().Clone()
	})
	if shardsMoved != uint64(held) {
		t.Fatalf("ShardsMoved = %d, want %d", shardsMoved, held)
	}
	for _, id := range cfgAfter.AllNodes() {
		if id == victim {
			t.Fatal("departed node still in the configuration")
		}
	}

	// Every key stays readable: the substitute recovers the departed
	// coordinator's shard, everything else never moved.
	for key, val := range want {
		addr := NodeAddr(cfgAfter.CoordinatorOf(store.KeyHash(key)))
		st, got := c.get(addr, proto.ReqID(200+len(key)), key)
		if st != proto.StOK || !bytes.Equal(got, val) {
			t.Fatalf("get %q after leave: %v", key, st)
		}
	}

	// Join the node back: zero movement, spare role only.
	r2 := c.resize(NodeAddr(leader), 300, proto.ReconfigJoin, victim)
	if r2.Status != proto.StOK {
		t.Fatalf("join: %v", r2.Status)
	}
	if r2.Moved != 0 {
		t.Fatalf("join moved %d slots, want 0", r2.Moved)
	}
	if r2.Epoch <= r.Epoch {
		t.Fatalf("join epoch %d not past leave epoch %d", r2.Epoch, r.Epoch)
	}
	cl.Runs[leader].Inspect(func(n *Node) {
		if n.Metrics.ShardsMoved.Load() != uint64(held) {
			t.Error("join changed the ShardsMoved counter")
		}
		spare := false
		for _, id := range n.Config().Spares {
			spare = spare || id == victim
		}
		if !spare {
			t.Error("rejoined node is not a spare")
		}
	})
}
