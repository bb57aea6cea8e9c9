package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
)

// TestRandomOpsAgainstModel runs long random operation sequences
// through the deterministic harness and checks every reply against a
// simple sequential model (a map), then verifies the storage
// invariants: the SRS parity stripe equation, volatile-index /
// metadata consistency, and version GC.
func TestRandomOpsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomOps(t, seed, 400, false)
		})
	}
}

// TestRandomOpsWithFailover injects a coordinator crash in the middle
// of a random workload restricted to reliable schemes; after recovery
// the model must still agree.
func TestRandomOpsWithFailover(t *testing.T) {
	for seed := int64(10); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomOps(t, seed, 250, true)
		})
	}
}

type modelVal struct {
	data []byte
	ver  proto.Version
}

func runRandomOps(t *testing.T, seed int64, ops int, failover bool) {
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(t, figure3Spec())
	model := make(map[string]modelVal)

	memgests := []proto.MemgestID{mgREP1, mgREP2, mgREP3, mgREP4, mgSRS21, mgSRS31, mgSRS32}
	if failover {
		// Restrict to schemes that survive a single node failure.
		memgests = []proto.MemgestID{mgREP2, mgREP3, mgREP4, mgSRS21, mgSRS31, mgSRS32}
	}
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("rk-%02d", i)
	}

	killed := false
	for i := 0; i < ops; i++ {
		if failover && !killed && i == ops/2 {
			// Crash a non-leader coordinator mid-workload and let the
			// cluster reconfigure and recover.
			h.kill(1)
			for tick := 0; tick < 80; tick++ {
				h.tick(10 * time.Millisecond)
			}
			killed = true
		}
		key := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // put
			mg := memgests[rng.Intn(len(memgests))]
			val := make([]byte, 1+rng.Intn(600))
			rng.Read(val)
			r := h.put(key, val, mg)
			if r.Status != proto.StOK {
				t.Fatalf("op %d: put %s into %d: %v", i, key, mg, r.Status)
			}
			m := model[key]
			if r.Version <= m.ver {
				t.Fatalf("op %d: version %d not above %d", i, r.Version, m.ver)
			}
			model[key] = modelVal{data: val, ver: r.Version}
		case 4, 5, 6: // get
			r := h.get(key)
			m, exists := model[key]
			if !exists {
				if r.Status != proto.StNotFound {
					t.Fatalf("op %d: get of absent %s: %v", i, key, r.Status)
				}
				continue
			}
			if r.Status != proto.StOK {
				t.Fatalf("op %d: get %s: %v", i, key, r.Status)
			}
			if r.Version != m.ver || !bytes.Equal(r.Value, m.data) {
				t.Fatalf("op %d: get %s returned v%d (%d bytes), model has v%d (%d bytes)",
					i, key, r.Version, len(r.Value), m.ver, len(m.data))
			}
		case 7, 8: // move
			mg := memgests[rng.Intn(len(memgests))]
			r := h.move(key, mg)
			m, exists := model[key]
			if !exists {
				if r.Status != proto.StNotFound {
					t.Fatalf("op %d: move of absent %s: %v", i, key, r.Status)
				}
				continue
			}
			if r.Status != proto.StOK {
				t.Fatalf("op %d: move %s to %d: %v", i, key, mg, r.Status)
			}
			if r.Version < m.ver {
				t.Fatalf("op %d: move decreased version", i)
			}
			model[key] = modelVal{data: m.data, ver: r.Version}
		case 9: // delete
			r := h.del(key)
			if _, exists := model[key]; !exists {
				if r.Status != proto.StNotFound {
					t.Fatalf("op %d: delete of absent %s: %v", i, key, r.Status)
				}
				continue
			}
			if r.Status != proto.StOK {
				t.Fatalf("op %d: delete %s: %v", i, key, r.Status)
			}
			delete(model, key)
		}
	}

	// Final full read-back.
	for _, key := range keys {
		r := h.get(key)
		if m, exists := model[key]; exists {
			if r.Status != proto.StOK || !bytes.Equal(r.Value, m.data) {
				t.Fatalf("final get %s mismatch: %v", key, r.Status)
			}
		} else if r.Status != proto.StNotFound {
			t.Fatalf("final get of absent %s: %v", key, r.Status)
		}
	}
	if !failover {
		h.checkParityInvariant()
	}
	h.checkIndexConsistency()
}

// checkIndexConsistency verifies, for every live node, that each
// shard's index and the metadata tables that are its views agree: a
// walk of the index meets every table's entries and no others, each
// under the table of its memgest, and a key's versions fall.
func (h *harness) checkIndexConsistency() {
	h.t.Helper()
	for id, n := range h.nodes {
		if !h.dead[id] {
			n.checkIndex(h.t)
		}
	}
}

// checkIndex is checkIndexConsistency for one node.
func (n *Node) checkIndex(t testing.TB) {
	t.Helper()
	for shard, x := range n.idx {
		held := 0
		for _, st := range n.mg {
			if cs := st.coord[shard]; cs != nil {
				held += cs.meta.Len()
			}
			if rt := st.rmeta[shard]; rt != nil {
				held += rt.Len()
			}
		}
		walked := 0
		x.Range(func(e *store.Meta) bool {
			walked++
			key := x.Key(e)
			st := n.mg[e.Memgest]
			if st == nil {
				t.Fatalf("node %d shard %d: the index holds (%s,v%d) of memgest %d, which the node does not know", n.id, shard, key, e.Version, e.Memgest)
			}
			table := st.rmeta[shard]
			if cs := st.coord[shard]; cs != nil {
				table = cs.meta
			}
			if table == nil || table.Get(key, e.Version) != e {
				t.Fatalf("node %d shard %d: index entry (%s,v%d,mg%d) is in no table of its memgest", n.id, shard, key, e.Version, e.Memgest)
			}
			if o := x.Older(e); o != nil && (x.Key(o) != key || o.Version > e.Version) {
				t.Fatalf("node %d shard %d: (%s,v%d) is followed by (%s,v%d)", n.id, shard, key, e.Version, x.Key(o), o.Version)
			}
			return true
		})
		if walked != held {
			t.Fatalf("node %d shard %d: a walk of the index meets %d entries, the tables count %d", n.id, shard, walked, held)
		}
	}
}
