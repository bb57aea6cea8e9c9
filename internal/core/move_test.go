package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ring/internal/proto"
)

// TestMove is the one table over the one scheme-change path: every
// way a move is admitted, deferred, and answered.
func TestMove(t *testing.T) {
	val := bytes.Repeat([]byte("m"), 1024)
	cases := []struct {
		name string
		run  func(t *testing.T, h *harness)
	}{
		{"tour across every scheme keeps the value", func(t *testing.T, h *harness) {
			h.put("mk", val, mgREP1)
			ver := proto.Version(1)
			for _, mg := range []proto.MemgestID{mgSRS32, mgREP3, mgSRS21, mgREP4, mgSRS31, mgREP2, mgREP1} {
				r := h.move("mk", mg)
				if r.Status != proto.StOK || r.Version != ver+1 {
					t.Fatalf("move to %d: %v v%d, want OK v%d", mg, r.Status, r.Version, ver+1)
				}
				ver = r.Version
				if g := h.get("mk"); g.Status != proto.StOK || !bytes.Equal(g.Value, val) {
					t.Fatalf("get after move to %d: %v", mg, g.Status)
				}
				if got := h.memgestOf("mk"); got != mg {
					t.Fatalf("key in memgest %d after move to %d", got, mg)
				}
				h.checkParityInvariant()
			}
		}},
		{"no-op move acks the current version", func(t *testing.T, h *harness) {
			ver := h.put("mk", val, mgREP3).Version
			if r := h.move("mk", mgREP3); r.Status != proto.StOK || r.Version != ver {
				t.Fatalf("no-op move: %+v, want OK v%d", r, ver)
			}
			n, _ := h.coordinatorOf("mk")
			if c := n.MetricsSnapshot().Memgests[mgREP3].Moves; c != 0 {
				t.Fatalf("no-op move counted %d executed moves", c)
			}
		}},
		{"rejections", func(t *testing.T, h *harness) {
			h.put("mk", val, mgREP3)
			h.put("dead", val, mgREP1)
			h.del("dead")
			for _, c := range []struct {
				key      string
				from, to proto.MemgestID
				want     proto.Status
			}{
				{"ghost", 0, mgREP1, proto.StNotFound},
				{"dead", 0, mgSRS32, proto.StNotFound},
				{"mk", 0, 99, proto.StNoMemgest},
				{"mk", mgREP2, mgSRS32, proto.StInvalid}, // conditional: not where the caller believes
			} {
				if r := h.moveIf(c.key, c.from, c.to); r.Status != c.want {
					t.Errorf("move %q %d->%d: %v, want %v", c.key, c.from, c.to, r.Status, c.want)
				}
			}
			if got := h.memgestOf("mk"); got != mgREP3 {
				t.Fatalf("rejected moves re-homed the key to memgest %d", got)
			}
			if r := h.moveIf("mk", mgREP3, mgSRS32); r.Status != proto.StOK || h.memgestOf("mk") != mgSRS32 {
				t.Fatalf("conditional move with the right source: %v", r.Status)
			}
		}},
		{"move of an uncommitted version parks, then runs", func(t *testing.T, h *harness) {
			// Section 5.2: "the move request will also be postponed if
			// the requested object is not durable".
			h.put("mk", []byte("v1"), mgREP3)
			held := h.inject("mk", "client/p", &proto.Put{Req: 40, Key: "mk", Value: []byte("v2"), Memgest: mgREP3})
			if outs := h.inject("mk", "client/m", &proto.Move{Req: 41, Key: "mk", Memgest: mgSRS32}); len(outs) != 0 {
				t.Fatalf("move of uncommitted version answered immediately: %v", outs)
			}
			h.release(held)
			if mr := h.lastReply("client/m").(*proto.PutReply); mr.Status != proto.StOK || mr.Version != 3 {
				t.Fatalf("parked move reply: %+v", mr)
			}
			if g := h.get("mk"); g.Status != proto.StOK || string(g.Value) != "v2" || g.Version != 3 {
				t.Fatalf("after parked move: %v %q v%d", g.Status, g.Value, g.Version)
			}
			if got := h.memgestOf("mk"); got != mgSRS32 {
				t.Fatalf("key landed in memgest %d", got)
			}
			h.checkParityInvariant()
		}},
		{"writes parked mid-window replay in arrival order", func(t *testing.T, h *harness) {
			h.put("mk", []byte("v1"), mgREP3)
			held := h.inject("mk", "client/m", &proto.Move{Req: 50, Key: "mk", Memgest: mgSRS32})
			n, _ := h.coordinatorOf("mk")
			if len(n.moving) != 1 {
				t.Fatalf("%d windows open, want 1", len(n.moving))
			}
			// A put, a second move, and a put again arrive inside the
			// window: none is answered, none reaches the pipeline. On
			// replay the puts take the next versions in arrival order;
			// the move, replayed between them, waits for durability like
			// any move and re-homes the last put.
			for i, msg := range []proto.Message{
				&proto.Put{Req: 51, Key: "mk", Value: []byte("first"), Memgest: mgREP3},
				&proto.Move{Req: 52, Key: "mk", Memgest: mgREP2},
				&proto.Put{Req: 53, Key: "mk", Value: []byte("last"), Memgest: mgREP3},
			} {
				if outs := h.inject("mk", fmt.Sprintf("client/w%d", i), msg); len(outs) != 0 {
					t.Fatalf("write %d inside the window was not parked: %v", i, outs)
				}
			}
			h.release(held)
			if r := h.lastReply("client/m").(*proto.PutReply); r.Status != proto.StOK || r.Version != 2 {
				t.Fatalf("move reply: %+v", r)
			}
			if r := h.lastReply("client/w0").(*proto.PutReply); r.Status != proto.StOK || r.Version != 3 {
				t.Fatalf("first parked put: %+v", r)
			}
			if r := h.lastReply("client/w2").(*proto.PutReply); r.Status != proto.StOK || r.Version != 4 {
				t.Fatalf("last parked put: %+v", r)
			}
			if r := h.lastReply("client/w1").(*proto.PutReply); r.Status != proto.StOK || r.Version != 5 {
				t.Fatalf("parked move: %+v", r)
			}
			if g := h.get("mk"); g.Status != proto.StOK || string(g.Value) != "last" || g.Version != 5 || h.memgestOf("mk") != mgREP2 {
				t.Fatalf("final state: %v %q v%d in memgest %d", g.Status, g.Value, g.Version, h.memgestOf("mk"))
			}
			if len(n.moving) != 0 {
				t.Fatalf("%d windows left open", len(n.moving))
			}
			h.checkParityInvariant()
		}},
		{"a window that loses its fan-out aborts and leaves nothing open", func(t *testing.T, h *harness) {
			n, _ := h.coordinatorOf("mk")
			awaiting := func() int64 { return n.MetricsSnapshot().WritesAwaitingQuorum }
			held := h.inject("mk", "client/p", &proto.Put{Req: 70, Key: "mk", Value: val, Memgest: mgREP3})
			if got := awaiting(); got != 1 {
				t.Fatalf("writes_awaiting_quorum = %d mid-put, want 1", got)
			}
			h.release(held)
			// The move's ParityUpdates are never delivered: the window
			// outlives the failure detector and is aborted.
			h.inject("mk", "client/m", &proto.Move{Req: 71, Key: "mk", Memgest: mgSRS32})
			if got := awaiting(); got != 1 {
				t.Fatalf("writes_awaiting_quorum = %d mid-move, want 1", got)
			}
			if !h.tickUntil(10*time.Millisecond, 20, func() bool { return len(h.replies("client/m")) > 0 }) {
				t.Fatal("the stuck window was never answered")
			}
			if r := h.lastReply("client/m").(*proto.PutReply); r.Status != proto.StRetry {
				t.Fatalf("aborted move: %+v, want StRetry", r)
			}
			cs := n.mg[mgSRS32].coord[n.shardOf("mk")]
			if len(cs.pending) != 0 || cs.tracker.Pending() != 0 || awaiting() != 0 {
				t.Fatalf("aborted window left %d pending commits, %d open quorum entries (gauge %d)",
					len(cs.pending), cs.tracker.Pending(), awaiting())
			}
			if r := h.move("mk", mgSRS32); r.Status != proto.StOK || r.Version != 2 {
				t.Fatalf("retried move: %+v", r)
			}
		}},
		{"prefix move fans out and counts", func(t *testing.T, h *harness) {
			const users = 12
			small := val[:64]
			for i := 0; i < users; i++ {
				h.put(fmt.Sprintf("user:%d", i), small, mgREP3)
			}
			h.put("user:there", small, mgSRS32) // already under the destination: counts as moved
			h.put("other:0", small, mgREP3)
			// bulk sends the prefix move to every coordinator, like
			// client.MovePrefix, and returns the summed count and the
			// statuses seen.
			bulk := func(from, to proto.MemgestID) (uint32, map[proto.Status]bool) {
				total, seen := uint32(0), make(map[proto.Status]bool)
				for id := proto.NodeID(0); id < 3; id++ {
					h.send("client/b", id, &proto.Move{Req: 60, Key: "user:", Memgest: to, From: from, Prefix: true})
					h.run()
					r := h.lastReply("client/b").(*proto.PutReply)
					total += r.Moved
					seen[r.Status] = true
				}
				return total, seen
			}
			if total, seen := bulk(0, mgSRS32); total != users+1 || len(seen) != 1 || !seen[proto.StOK] {
				t.Fatalf("prefix move counted %d keys (%v), want %d, all OK", total, seen, users+1)
			}
			for i := 0; i < users; i++ {
				if got := h.memgestOf(fmt.Sprintf("user:%d", i)); got != mgSRS32 {
					t.Fatalf("user:%d in memgest %d", i, got)
				}
			}
			if got := h.memgestOf("other:0"); got != mgREP3 {
				t.Fatalf("key outside the prefix moved to memgest %d", got)
			}
			// Conditional bulk: nothing is in REP2, so every key is
			// rejected and the aggregate says so.
			if total, seen := bulk(mgREP2, mgREP3); total != 0 || !seen[proto.StInvalid] {
				t.Fatalf("conditional prefix move with the wrong source moved %d keys (%v)", total, seen)
			}
			h.checkParityInvariant()
		}},
		{"move parks on Rep value recovery", func(t *testing.T, h *harness) {
			h.put("mk", val, mgREP3)
			// The coordinator lost the value in a failover and has not
			// re-fetched it yet.
			n, _ := h.coordinatorOf("mk")
			shard := n.shardOf("mk")
			n.mg[mgREP3].coord[shard].meta.Hold(n.indexFor(shard).Highest("mk"), nil)
			if r := h.move("mk", mgSRS32); r.Status != proto.StOK || r.Version != 2 {
				t.Fatalf("move through value recovery: %+v", r)
			}
			if g := h.get("mk"); g.Status != proto.StOK || !bytes.Equal(g.Value, val) {
				t.Fatalf("get after move: %v", g.Status)
			}
			h.checkParityInvariant()
		}},
		{"move parks on SRS block recovery", func(t *testing.T, h *harness) {
			h.put("mk", val, mgSRS32)
			// The coordinator's block has not been re-decoded yet after a
			// failover.
			n, _ := h.coordinatorOf("mk")
			shard := n.shardOf("mk")
			lost := blockWant(mgSRS32, shard, n.indexFor(shard).Highest("mk").Extent().Block)
			n.wants.open(lost)
			if r := h.move("mk", mgREP3); r.Status != proto.StOK || r.Version != 2 {
				t.Fatalf("move through block recovery: %+v", r)
			}
			if n.lacks(lost) {
				t.Fatal("block was not recovered")
			}
			if g := h.get("mk"); g.Status != proto.StOK || !bytes.Equal(g.Value, val) {
				t.Fatalf("get after move: %v", g.Status)
			}
			h.checkParityInvariant()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, newHarness(t, figure3Spec())) })
	}
}
