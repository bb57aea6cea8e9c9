package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
)

// getVersion drives an exact-version read through the harness.
func (h *harness) getVersion(key string, ver proto.Version) *proto.GetReply {
	_, id := h.coordinatorOf(key)
	h.send("client/t", id, &proto.Get{Req: 5, Key: key, Version: ver})
	h.run()
	r, ok := h.lastReply("client/t").(*proto.GetReply)
	if !ok {
		h.t.Fatalf("getVersion %q: wrong reply type", key)
	}
	return r
}

func TestKeepVersionsRetainsOldCopies(t *testing.T) {
	spec := figure3Spec()
	spec.Opts.KeepVersions = 1
	h := newHarness(t, spec)

	// v1 reliable, v2 unreliable: the reliable copy must survive.
	h.put("vk", []byte("durable"), mgSRS32)
	h.put("vk", []byte("fast"), mgREP1)

	if g := h.get("vk"); string(g.Value) != "fast" || g.Version != 2 {
		t.Fatalf("newest: %q v%d", g.Value, g.Version)
	}
	if g := h.getVersion("vk", 1); g.Status != proto.StOK || string(g.Value) != "durable" {
		t.Fatalf("retained v1: %v %q", g.Status, g.Value)
	}
	// A third put evicts v1 (KeepVersions=1 keeps only v2).
	h.put("vk", []byte("newest"), mgREP1)
	if g := h.getVersion("vk", 1); g.Status != proto.StNotFound {
		t.Fatalf("v1 should be GCed, got %v", g.Status)
	}
	if g := h.getVersion("vk", 2); g.Status != proto.StOK || string(g.Value) != "fast" {
		t.Fatalf("v2 should be retained: %v", g.Status)
	}
}

func TestGetVersionDefaultGC(t *testing.T) {
	// With KeepVersions=0 old versions vanish at commit.
	h := newHarness(t, figure3Spec())
	h.put("gk", []byte("one"), mgREP3)
	h.put("gk", []byte("two"), mgREP3)
	if g := h.getVersion("gk", 1); g.Status != proto.StNotFound {
		t.Fatalf("v1 should be gone: %v", g.Status)
	}
	if g := h.getVersion("gk", 2); g.Status != proto.StOK {
		t.Fatalf("v2 missing: %v", g.Status)
	}
	if g := h.getVersion("gk", 99); g.Status != proto.StNotFound {
		t.Fatalf("future version: %v", g.Status)
	}
}

func TestKeepDurableBackupPinsReliableCopy(t *testing.T) {
	spec := figure3Spec()
	spec.Opts.KeepDurableBackup = true
	h := newHarness(t, spec)

	// Durable v1, then a storm of unreliable puts. The durable copy
	// must survive arbitrarily many unreliable versions.
	h.put("bk", []byte("durable"), mgSRS32)
	for i := 0; i < 20; i++ {
		h.put("bk", []byte(fmt.Sprintf("bid-%d", i)), mgREP1)
	}
	if g := h.getVersion("bk", 1); g.Status != proto.StOK || string(g.Value) != "durable" {
		t.Fatalf("durable backup lost: %v %q", g.Status, g.Value)
	}
	// Intermediate unreliable versions are still GCed.
	if g := h.getVersion("bk", 2); g.Status != proto.StNotFound {
		t.Fatalf("unreliable v2 should be GCed: %v", g.Status)
	}
	// Once a newer durable version commits, the pin moves to it and the
	// old one is collected.
	h.put("bk", []byte("durable2"), mgSRS32)
	h.put("bk", []byte("after"), mgREP1)
	if g := h.getVersion("bk", 1); g.Status != proto.StNotFound {
		t.Fatalf("old durable should be GCed after a new durable commit: %v", g.Status)
	}
	if g := h.getVersion("bk", 22); g.Status != proto.StOK || string(g.Value) != "durable2" {
		t.Fatalf("new durable pin missing: %v %q", g.Status, g.Value)
	}
	h.checkParityInvariant()
}

func TestKeepVersionsSurvivesCoordinatorFailure(t *testing.T) {
	// The heavy-updates story: reliable v1 retained while v2 lives in
	// the unreliable memgest; killing the coordinator loses v2 but the
	// recovered node still serves v1.
	spec := figure3Spec()
	spec.Opts.KeepVersions = 1
	h := newHarness(t, spec)

	h.put("hk", []byte("reliable"), mgSRS32)
	h.put("hk", []byte("volatile"), mgREP1)
	_, dead := h.coordinatorOf("hk")
	if dead == 0 {
		// Keep the leader alive for a simpler test; re-key if needed.
		for i := 0; ; i++ {
			key := fmt.Sprintf("hk-%d", i)
			if _, id := h.coordinatorOf(key); id != 0 {
				h.put(key, []byte("reliable"), mgSRS32)
				h.put(key, []byte("volatile"), mgREP1)
				dead = id
				h.kill(dead)
				for tick := 0; tick < 100; tick++ {
					h.tick(10 * time.Millisecond)
				}
				g := h.get(key)
				if g.Status != proto.StOK || !bytes.Equal(g.Value, []byte("reliable")) {
					t.Fatalf("after failover: %v %q (want the preserved reliable copy)", g.Status, g.Value)
				}
				return
			}
		}
	}
	h.kill(dead)
	for tick := 0; tick < 100; tick++ {
		h.tick(10 * time.Millisecond)
	}
	// The unreliable v2 died with the node; the newest surviving
	// version is the reliable v1.
	g := h.get("hk")
	if g.Status != proto.StOK || !bytes.Equal(g.Value, []byte("reliable")) || g.Version != 1 {
		t.Fatalf("after failover: %v %q v%d (want reliable v1)", g.Status, g.Value, g.Version)
	}
}

// TestDeleteMemgestUncoversOlderVersion: the index of a shard names
// what its tables hold and nothing else. With v1 of a key kept in rep3
// and v2 in srs3.2, deleting srs3.2 takes v2 away on every node and v1
// is the key's newest version again. (At f8355ac the coordinator kept a
// VolatileIndex beside its tables, loseRole dropped the table and left
// the index's references into it, and the key answered "not found"
// until its next put, for ever on a key never put again.) The next put
// takes the highest version that exists plus one — 2 here, where the
// stale reference gave 3: a version number is reused after a memgest
// is deleted, as it is after a delete's tombstone is reclaimed, and
// floors that forbid both are ROADMAP item 4(b).
func TestDeleteMemgestUncoversOlderVersion(t *testing.T) {
	spec := figure3Spec()
	spec.Opts.KeepVersions = 1
	h := newHarness(t, spec)
	h.put("k", []byte("replicated"), mgREP3)
	h.put("k", []byte("coded"), mgSRS32)
	if g := h.get("k"); string(g.Value) != "coded" || g.Version != 2 {
		t.Fatalf("before the delete: %q v%d", g.Value, g.Version)
	}
	h.send("client/d", 0, &proto.Reconfig{Req: 31, Op: proto.ReconfigDelete, Memgest: mgSRS32})
	h.run()
	if r := h.lastReply("client/d").(*proto.ReconfigReply); r.Status != proto.StOK {
		t.Fatalf("delete memgest: %v", r.Status)
	}
	if g := h.get("k"); g.Status != proto.StOK || string(g.Value) != "replicated" || g.Version != 1 {
		t.Fatalf("after its newer version's memgest was deleted the key reads %v %q v%d, want v1's bytes", g.Status, g.Value, g.Version)
	}
	var entries uint64
	for id, n := range h.nodes {
		n.checkIndex(t)
		for _, x := range n.idx {
			x.Range(func(e *store.Meta) bool {
				if entries++; e.Memgest == mgSRS32 {
					t.Fatalf("node %d still indexes (%s,v%d) of the deleted memgest", id, x.Key(e), e.Version)
				}
				return true
			})
		}
		entries -= n.MetricsSnapshot().MetaEntries
	}
	if entries != 0 {
		t.Fatalf("a walk of the indexes and meta_entries differ by %d", int64(entries))
	}
	if p := h.put("k", []byte("again"), mgREP3); p.Status != proto.StOK || p.Version != 2 {
		t.Fatalf("the put after: %v v%d, want v2", p.Status, p.Version)
	}
}
