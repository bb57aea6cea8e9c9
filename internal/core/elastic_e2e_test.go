package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
	"ring/internal/testutil"
)

// This file holds the end-to-end move crash matrix, driven through
// the real client: kill -9 at each phase of a move must recover to
// exactly the old or the new scheme (never a hybrid).
//
// The move crash matrix, by journal state at the kill:
//
//	before conv-begin     — nothing happened; trivially the old scheme.
//	window open           — conv-begin journaled, destination write
//	                        uncommitted: recovery drops the uncommitted
//	                        append and replays the committed source
//	                        version (TestMoveKillMidWindowRecoversOld).
//	after conv-end        — the journal barrier ordered conv-end before
//	                        the ack escaped, so an acknowledged move
//	                        replays to the new scheme
//	                        (TestMoveKillAfterCommitRecoversNew).

// elasticSpec is a durable cluster with two reliable memgests to move
// between: mg1 Rep(3,3) and mg2 SRS(2,1,3). Failure detection is
// effectively off so kill/restart cycles exercise the durable rejoin
// path, not role substitution.
func elasticSpec(t *testing.T) core.ClusterSpec {
	return core.ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 1,
		Memgests: []proto.Scheme{proto.Rep(3, 3), proto.SRS(2, 1, 3)},
		Opts: core.Options{
			BlockSize: 16 << 10,
			FailAfter: 10 * time.Minute,
		},
		TickEvery:   2 * time.Millisecond,
		DataDir:     t.TempDir(),
		DurableOpts: replog.DurableOptions{Policy: replog.FsyncAlways},
	}
}

// startElastic boots the cluster and dials a client on it.
func startElastic(t *testing.T, spec core.ClusterSpec) (*core.Cluster, *client.Client) {
	t.Helper()
	cl, err := core.StartCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, dialElastic(t, cl)
}

func dialElastic(t *testing.T, cl *core.Cluster) *client.Client {
	t.Helper()
	c, err := client.Dial(cl.Fabric, []string{core.NodeAddr(cl.Cfg.Leader)}, client.Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// pickVictimKey finds a non-leader coordinator and a key it owns.
func pickVictimKey(t *testing.T, cl *core.Cluster) (proto.NodeID, string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("conv-key-%d", i)
		coord := cl.Cfg.CoordinatorOf(store.KeyHash(key))
		if coord != cl.Cfg.Leader {
			return coord, key
		}
	}
	t.Fatal("no key hashing to a non-leader coordinator")
	return proto.NilNode, ""
}

// getEventually reads key, retrying while the restarted coordinator is
// still rejoining or recovering.
func getEventually(t *testing.T, c *client.Client, key string, want []byte) {
	t.Helper()
	var got []byte
	var err error
	ok := testutil.Eventually(10*time.Second, 10*time.Millisecond, func() bool {
		got, _, err = c.Get(key)
		return err == nil
	})
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("get %q after crash: %v, %dB", key, err, len(got))
	}
}

// TestMoveKillAfterCommitRecoversNew crashes the coordinator right
// after a move acknowledged. The conv-end journal record was fsynced
// before the ack escaped, so the restarted node must serve the key from
// the new scheme.
func TestMoveKillAfterCommitRecoversNew(t *testing.T) {
	cl, c := startElastic(t, elasticSpec(t))
	victim, key := pickVictimKey(t, cl)

	val := bytes.Repeat([]byte("conv"), 300)
	if _, err := c.PutIn(key, val, 1); err != nil {
		t.Fatal(err)
	}
	ver, err := c.Move(key, 2)
	if err != nil {
		t.Fatalf("move: %v", err)
	}

	cl.Kill(victim)
	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}

	getEventually(t, c, key, val)
	// The highest version must live in the destination memgest — an
	// acknowledged move never replays to the source scheme.
	ok := testutil.Eventually(10*time.Second, 10*time.Millisecond, func() bool {
		var refs []store.VersionRef
		cl.Runs[victim].Inspect(func(n *core.Node) { refs = n.KeyVersions(key) })
		return len(refs) > 0 && refs[0].Memgest == 2 && refs[0].Version == ver
	})
	if !ok {
		t.Fatal("recovered key not in the destination memgest")
	}
}

// TestMoveKillMidWindowRecoversOld crashes the coordinator while a move
// window is open: the destination is SRS(2,1,3) whose single parity
// node is unreachable, so the destination write can never reach quorum.
// conv-begin is journaled but the destination append is uncommitted;
// recovery must drop it and serve the committed source version — old
// scheme exactly, no hybrid.
func TestMoveKillMidWindowRecoversOld(t *testing.T) {
	cl, c := startElastic(t, elasticSpec(t))
	victim, key := pickVictimKey(t, cl)

	val := bytes.Repeat([]byte("wind"), 300)
	if _, err := c.PutIn(key, val, 1); err != nil {
		t.Fatal(err)
	}

	// SRS(2,1,3) commits only after its one parity node acked. Cut the
	// coordinator<->parity link (both stay alive and serving, so no
	// recovery interlock later) and the destination append is lost: the
	// window stays open indefinitely (the write pipeline never
	// retransmits, and the FailAfter abort is 10min away).
	parity := cl.Cfg.Redundant[0]
	vAddr, pAddr := core.NodeAddr(victim), core.NodeAddr(parity)
	cl.Fabric.SetDropFunc(func(from, to string) bool {
		return (from == vAddr && to == pAddr) || (from == pAddr && to == vAddr)
	})

	// Fire the move from a client of its own (no reply will come; closing
	// that client after the kill ends the call before it can retry
	// against the restarted node) and wait for the window to register on
	// the coordinator.
	mover := dialElastic(t, cl)
	moved := make(chan error, 1)
	go func() {
		_, err := mover.Move(key, 2)
		moved <- err
	}()
	open := testutil.Eventually(10*time.Second, 5*time.Millisecond, func() bool {
		var windows int
		cl.Runs[victim].Inspect(func(n *core.Node) { windows = n.OpenMoves() })
		return windows == 1
	})
	if !open {
		t.Fatal("move window never opened")
	}

	// kill -9 with the window open, heal the link, restart. Every peer
	// is alive and serving, so the victim's recovery completes.
	cl.Kill(victim)
	mover.Close()
	if err := <-moved; err == nil {
		t.Fatal("move acknowledged although its destination write never reached quorum")
	}
	cl.Fabric.SetDropFunc(nil)
	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}

	getEventually(t, c, key, val)
	// Never hybrid: the recovered index holds exactly the committed
	// source version; no trace of the uncommitted destination write.
	cl.Runs[victim].Inspect(func(n *core.Node) {
		refs := n.KeyVersions(key)
		if len(refs) != 1 || refs[0].Memgest != 1 {
			t.Errorf("recovered versions %v, want exactly one in memgest 1", refs)
		}
		if n.OpenMoves() != 0 {
			t.Error("move window survived the crash")
		}
	})
}
