package core

import (
	"fmt"
	"testing"
	"time"

	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/store"
	"ring/internal/transport"
)

func TestGroupOf(t *testing.T) {
	// Deterministic, in range, and independent of shard routing.
	counts := make([]int, 4)
	shardSkew := make(map[[2]int]int)
	for i := 0; i < 4096; i++ {
		key := fmt.Sprintf("key-%05d", i)
		g := GroupOf(key, 4)
		if g != GroupOf(key, 4) {
			t.Fatalf("GroupOf not deterministic for %q", key)
		}
		if g < 0 || g >= 4 {
			t.Fatalf("GroupOf(%q, 4) = %d out of range", key, g)
		}
		counts[g]++
		shardSkew[[2]int{g, int(store.KeyHash(key) % 4)}]++
	}
	for g, n := range counts {
		if n < 4096/4/2 || n > 4096/4*2 {
			t.Errorf("group %d holds %d of 4096 keys; distribution too skewed", g, n)
		}
	}
	// Groups must not alias shards: with 4 groups and 4 shards every
	// (group, shard) cell should be populated, which fails if group
	// routing reuses h mod s.
	for g := 0; g < 4; g++ {
		for s := 0; s < 4; s++ {
			if shardSkew[[2]int{g, s}] == 0 {
				t.Errorf("no keys land in group %d shard %d: group routing correlates with shard routing", g, s)
			}
		}
	}
	if GroupOf("anything", 1) != 0 || GroupOf("anything", 0) != 0 {
		t.Error("GroupOf must collapse to 0 for <= 1 group")
	}
}

// groupPut writes a key through one group's fabric and waits for the
// commit, returning the PutReply status.
func groupPut(t *testing.T, c *Cluster, ep transport.Endpoint, req proto.ReqID, key string) proto.Status {
	t.Helper()
	coord := NodeAddr(c.Cfg.CoordinatorOf(store.KeyHash(key)))
	msg := &proto.Put{Req: req, Key: key, Value: []byte("v-" + key), Memgest: 1}
	if err := ep.Send(coord, proto.Encode(msg)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("timeout waiting for put %q", key)
		default:
		}
		p, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var st proto.Status
		var done bool
		_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
			if m, err := proto.Decode(enc); err == nil {
				if r, ok := m.(*proto.PutReply); ok && r.Req == req {
					st, done = r.Status, true
				}
			}
			return nil
		})
		if done {
			return st
		}
	}
}

// groupGet reads a key through one group's fabric, returning the
// GetReply status.
func groupGet(t *testing.T, c *Cluster, ep transport.Endpoint, req proto.ReqID, key string) proto.Status {
	t.Helper()
	coord := NodeAddr(c.Cfg.CoordinatorOf(store.KeyHash(key)))
	if err := ep.Send(coord, proto.Encode(&proto.Get{Req: req, Key: key})); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatalf("timeout waiting for get %q", key)
		default:
		}
		p, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var st proto.Status
		var done bool
		_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
			if m, err := proto.Decode(enc); err == nil {
				if r, ok := m.(*proto.GetReply); ok && r.Req == req {
					st, done = r.Status, true
				}
			}
			return nil
		})
		if done {
			return st
		}
	}
}

func TestGroupClusterShardsKeys(t *testing.T) {
	spec := ClusterSpec{
		Shards: 3, Redundant: 2,
		Memgests: []proto.Scheme{proto.Rep(3, 3)},
		Opts:     Options{FailAfter: 10 * time.Minute},
	}
	gc, err := StartGroupCluster(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Stop()
	if len(gc.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(gc.Groups))
	}

	eps := make([]transport.Endpoint, len(gc.Groups))
	for g, c := range gc.Groups {
		ep, err := c.Fabric.Register("client/t")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[g] = ep
	}

	// Route 32 keys by GroupOf and write each through its group.
	keyGroup := make(map[string]int)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("gk-%03d", i)
		g := gc.GroupFor(key)
		keyGroup[key] = g
		if st := groupPut(t, gc.Groups[g], eps[g], proto.ReqID(i+1), key); st != proto.StOK {
			t.Fatalf("put %q via group %d: %v", key, g, st)
		}
	}

	// Each key is readable through its own group and absent from the
	// other — groups are fully independent deployments.
	req := proto.ReqID(1000)
	for key, g := range keyGroup {
		for gi, c := range gc.Groups {
			req++
			st := groupGet(t, c, eps[gi], req, key)
			if gi == g && st != proto.StOK {
				t.Errorf("key %q via its group %d: %v, want OK", key, gi, st)
			}
			if gi != g && st != proto.StNotFound {
				t.Errorf("key %q leaked into group %d: %v, want NotFound", key, gi, st)
			}
		}
	}

	// The parallelism is observable: one runner goroutine per node per
	// group, and a queue-depth gauge per group.
	snap := metrics.Default.Snapshot()
	if got := snap["core.runner_goroutines"].(int64); got < int64(2*len(gc.Groups[0].Runs)) {
		t.Errorf("core.runner_goroutines = %d, want >= %d", got, 2*len(gc.Groups[0].Runs))
	}
	for g := range gc.Groups {
		name := fmt.Sprintf("core.group.%d.queue_depth", g)
		if _, ok := snap[name].(int64); !ok {
			t.Errorf("gauge %s missing from process registry (have %T)", name, snap[name])
		}
	}
}
