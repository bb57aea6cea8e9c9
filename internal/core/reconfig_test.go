package core

import (
	"slices"
	"testing"
	"time"

	"ring/internal/proto"
)

// TestDeltas pins each configuration delta as a function of the
// configuration alone: the exact coordinators, redundancy nodes and
// spares it leaves, the slots it moves, and whether it changed
// anything. The cluster is 3 coordinators (0-2), 2 redundancy nodes
// (3, 4) backing two memgests, and the spares each case names.
func TestDeltas(t *testing.T) {
	ids := func(v ...proto.NodeID) []proto.NodeID { return v }
	for _, tc := range []struct {
		name   string
		spares []proto.NodeID
		d      delta

		status                   proto.Status
		leader                   proto.NodeID
		coords, redundant, after []proto.NodeID
		moved                    uint32
		same                     bool
	}{
		{name: "evict a coordinator", spares: ids(5, 6), d: evict(1),
			coords: ids(0, 5, 2), redundant: ids(3, 4), after: ids(6), moved: 1},
		{name: "evict a parity node", spares: ids(5, 6), d: evict(4),
			coords: ids(0, 1, 2), redundant: ids(3, 5), after: ids(6), moved: 3},
		// The spare leak: evicting a spare must not take another with it.
		{name: "evict a spare", spares: ids(5, 6), d: evict(5),
			coords: ids(0, 1, 2), redundant: ids(3, 4), after: ids(6)},
		{name: "evict a node not in the config", spares: ids(5, 6), d: evict(9),
			coords: ids(0, 1, 2), redundant: ids(3, 4), after: ids(5, 6), same: true},
		{name: "evict with no spare left", d: evict(1),
			coords: ids(0, 1, 2), redundant: ids(3, 4), same: true},
		{name: "admit", spares: ids(5), d: admit(6),
			coords: ids(0, 1, 2), redundant: ids(3, 4), after: ids(5, 6)},
		{name: "admit twice", spares: ids(5), d: func(cfg *proto.Config) proto.Status { admit(6)(cfg); return admit(6)(cfg) },
			coords: ids(0, 1, 2), redundant: ids(3, 4), after: ids(5, 6)},
		{name: "admit a member", spares: ids(5), d: admit(3),
			coords: ids(0, 1, 2), redundant: ids(3, 4), after: ids(5), same: true},
		{name: "admit nobody", d: admit(proto.NilNode), status: proto.StInvalid,
			coords: ids(0, 1, 2), redundant: ids(3, 4), same: true},
		{name: "leave", spares: ids(5, 6), d: leave(2),
			coords: ids(0, 1, 5), redundant: ids(3, 4), after: ids(6), moved: 1},
		{name: "a spare leaves without a second spare", spares: ids(5), d: leave(5),
			coords: ids(0, 1, 2), redundant: ids(3, 4)},
		{name: "leave with no spare to take over", d: leave(2), status: proto.StUnavailable,
			coords: ids(0, 1, 2), redundant: ids(3, 4), same: true},
		{name: "the leader cannot leave", spares: ids(5), d: leave(0), status: proto.StInvalid,
			coords: ids(0, 1, 2), redundant: ids(3, 4), after: ids(5), same: true},
		{name: "leave of a stranger", spares: ids(5), d: leave(9), status: proto.StNotFound,
			coords: ids(0, 1, 2), redundant: ids(3, 4), after: ids(5), same: true},
		{name: "readmit a role holder", spares: ids(5, 6), d: readmit(3),
			coords: ids(0, 1, 2), redundant: ids(5, 4), after: ids(6, 3), moved: 3},
		{name: "readmit a spare", spares: ids(5, 6), d: readmit(5),
			coords: ids(0, 1, 2), redundant: ids(3, 4), after: ids(5, 6), same: true},
		{name: "readmit with no spare keeps the roles", d: readmit(1),
			coords: ids(0, 1, 2), redundant: ids(3, 4), same: true},
		{name: "takeover", spares: ids(5, 6), d: takeover(1, 0), leader: 1,
			coords: ids(5, 1, 2), redundant: ids(3, 4), after: ids(6), moved: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, err := BootConfig(ClusterSpec{Shards: 3, Redundant: 2,
				Memgests: []proto.Scheme{proto.SRS(3, 2, 3), proto.Rep(3, 3)}})
			if err != nil {
				t.Fatal(err)
			}
			old.Spares = tc.spares
			cfg := old.Clone()
			if st := tc.d(cfg); st != tc.status {
				t.Fatalf("status %v, want %v", st, tc.status)
			}
			if tc.status != proto.StOK {
				return // a refused delta's copy is discarded
			}
			if cfg.Leader != tc.leader || !slices.Equal(cfg.Coords, tc.coords) ||
				!slices.Equal(cfg.Redundant, tc.redundant) || !slices.Equal(cfg.Spares, tc.after) {
				t.Fatalf("leader=%d coords=%v redundant=%v spares=%v, want %d %v %v %v",
					cfg.Leader, cfg.Coords, cfg.Redundant, cfg.Spares, tc.leader, tc.coords, tc.redundant, tc.after)
			}
			for _, mi := range cfg.Memgests {
				if !slices.Equal(mi.Redundant, tc.redundant) {
					t.Fatalf("memgest %d redundancy %v, want %v", mi.ID, mi.Redundant, tc.redundant)
				}
			}
			if got := configDelta(old, cfg); got != tc.moved {
				t.Fatalf("configDelta = %d, want %d", got, tc.moved)
			}
			if got := sameConfig(old, cfg); got != tc.same {
				t.Fatalf("sameConfig = %v, want %v", got, tc.same)
			}
		})
	}
}

// machine drives one node's configuration protocol alone: a bare
// membership whose host records what it sends and whose install does
// only the protocol's own part (leaving quarantine, abandoning a
// pending change). No data plane, no router, no other node unless the
// test builds one — or, with node set, the same protocol hosted by a
// whole Node through HandleMessage and HandleTick.
type machine struct {
	*membership
	t    *testing.T
	outs []Out
	node *Node
}

// step is the time one tick advances.
const step = 10 * time.Millisecond

// bareMembership is node id's protocol with the configuration cfg not
// yet installed, hosted by a machine.
func bareMembership(t *testing.T, id proto.NodeID, cfg *proto.Config) *machine {
	m := &machine{t: t}
	m.membership = &membership{self: id, failAfter: figure3Spec().Opts.FailAfter, nextMgID: 1, cfg: cfg,
		metrics: newNodeMetrics(),
		send:    func(to string, msg proto.Message) { m.outs = append(m.outs, Out{To: to, Msg: msg}) },
		install: func(_, _ *proto.Config) { m.leaveQuarantine(); m.abandonPending() },
	}
	return m
}

func bootConfig(t *testing.T) *proto.Config {
	cfg, err := BootConfig(figure3Spec())
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// newMachine is node id of a fresh Figure 3 cluster, one millisecond
// after boot.
func newMachine(t *testing.T, id proto.NodeID) *machine {
	m := bareMembership(t, id, nil)
	m.adopt(bootConfig(t))
	m.now = time.Millisecond
	return m
}

// newNodeMachine is newMachine hosted by a Node, whose install must call
// the protocol back.
func newNodeMachine(t *testing.T, id proto.NodeID) *machine {
	n := New(id, bootConfig(t), figure3Spec().Opts)
	m := &machine{membership: &n.membership, t: t, node: n}
	m.now = time.Millisecond
	return m
}

// flush returns and forgets what the protocol sent.
func (m *machine) flush() []Out {
	outs := m.outs
	m.outs = nil
	return outs
}

func (m *machine) msg(from string, msg proto.Message) []Out {
	if m.node != nil {
		return slices.Clone(m.node.deliver(m.now, from, msg))
	}
	m.handle(m.now, from, msg)
	return m.flush()
}

// tick advances one step. Every member but the silent ones answers the
// heartbeat before it, so the failure detector stays out of what the
// test is about.
func (m *machine) tick(silent ...proto.NodeID) []Out {
	for _, id := range m.cfg.AllNodes() {
		if id != m.self && !slices.Contains(silent, id) {
			m.msg(NodeAddr(id), &proto.HeartbeatAck{Epoch: m.cfg.Epoch})
		}
	}
	m.now += step
	if m.node != nil {
		return slices.Clone(m.node.tickOuts(m.now))
	}
	m.membership.tick(m.now)
	return m.flush()
}

// pushes returns the epoch of the ConfigPush each node was sent.
func pushes(t *testing.T, outs []Out) map[string]proto.Epoch {
	got := make(map[string]proto.Epoch)
	for _, o := range outs {
		if p, ok := o.Msg.(*proto.ConfigPush); ok {
			if _, dup := got[o.To]; dup {
				t.Fatalf("two ConfigPush to %s in one batch", o.To)
			}
			got[o.To] = p.Config.Epoch
		}
	}
	return got
}

// replyTo returns the one message addressed to a client, or nil.
func replyTo(t *testing.T, outs []Out, client string) proto.Message {
	var got proto.Message
	for _, o := range outs {
		if o.To == client {
			if got != nil {
				t.Fatalf("two replies to %s", client)
			}
			got = o.Msg
		}
	}
	return got
}

// fence starts a leave of node on a fresh leader and returns the fence
// push, checking it is the only thing the leader said.
func (m *machine) fence(node proto.NodeID) *proto.ConfigPush {
	m.t.Helper()
	outs := m.msg("client/op", &proto.Reconfig{Req: 1, Op: proto.ReconfigLeave, Node: node})
	if len(outs) != 1 || outs[0].To != NodeAddr(node) {
		m.t.Fatalf("leave must push to the departing node alone, got %+v", outs)
	}
	push := outs[0].Msg.(*proto.ConfigPush)
	if push.Config.Epoch != 2 || isMember(push.Config, node) || m.cfg.Epoch != 1 {
		m.t.Fatalf("fence carries epoch %d (member=%v), leader at %d", push.Config.Epoch, isMember(push.Config, node), m.cfg.Epoch)
	}
	return push
}

// TestFencePushLostIsRepushed: the fence ConfigPush is lost, the next
// tick sends it again — to the departing node and nobody else — and its
// ConfigAck then releases the announce and the operator's reply.
func TestFencePushLostIsRepushed(t *testing.T) {
	m := newMachine(t, 0)
	lost := m.fence(1)

	got := pushes(t, m.tick())
	if len(got) != 1 || got[NodeAddr(1)] != 2 {
		t.Fatalf("tick with a fence pending pushed %v, want epoch 2 to node 1 only", got)
	}
	if c := m.metrics.ConfigRepushes.Load(); c != 1 {
		t.Fatalf("ConfigRepushes = %d, want 1", c)
	}

	// The departing node installs the configuration that excludes it
	// and acknowledges; only then does anyone else hear of epoch 2.
	departing := newMachine(t, 1)
	acks := departing.msg(NodeAddr(0), lost)
	if len(acks) != 1 || acks[0].To != NodeAddr(0) {
		t.Fatalf("departing node answered %+v", acks)
	}
	outs := m.msg(NodeAddr(1), acks[0].Msg)
	got = pushes(t, outs)
	if _, told := got[NodeAddr(1)]; told || len(got) != 5 {
		t.Fatalf("announce went to %v, want the five remaining members", got)
	}
	r, _ := replyTo(t, outs, "client/op").(*proto.ReconfigReply)
	if r == nil || r.Status != proto.StOK || r.Moved != 1 || r.Epoch != 2 || m.cfg.Epoch != 2 {
		t.Fatalf("reply %+v, leader at epoch %d", r, m.cfg.Epoch)
	}
	if m.metrics.ShardsMoved.Load() != 1 {
		t.Fatalf("ShardsMoved = %d, want 1", m.metrics.ShardsMoved.Load())
	}
}

// TestFenceSilentDeparterCompletesAsFailover: a departing node that
// never acknowledges is, past FailAfter, a failed node — the held
// configuration is announced as it stands and the operator is told
// StOK with the slots it moved.
func TestFenceSilentDeparterCompletesAsFailover(t *testing.T) {
	m := newMachine(t, 0)
	// Node 4 holds a group redundancy slot and one in each of the seven
	// memgests.
	const held = 8
	m.fence(4)

	var outs []Out
	for m.cfg.Epoch == 1 {
		if m.now > 2*m.failAfter {
			t.Fatal("fence never completed")
		}
		outs = m.tick(4)
	}
	if m.now <= m.failAfter {
		t.Fatalf("fence completed at %v, before FailAfter", m.now)
	}
	r, _ := replyTo(t, outs, "client/op").(*proto.ReconfigReply)
	if r == nil || r.Status != proto.StOK || r.Moved != held || r.Epoch != 2 {
		t.Fatalf("reply %+v, want StOK moved=%d epoch=2", r, held)
	}
	if got := pushes(t, outs); len(got) != 5 || m.cfg.Epoch != 2 || isMember(m.cfg, 4) {
		t.Fatalf("announce %v, leader at epoch %d", got, m.cfg.Epoch)
	}
	if c := m.metrics.ShardsMoved.Load(); c != held {
		t.Fatalf("ShardsMoved = %d, want %d", c, held)
	}
}

// TestFenceOvertakenIsAbandoned: a configuration from another leader
// lands while the fence is pending. The operator is told StRetry, the
// held configuration is never announced, and the fence node's late ack
// releases nothing. On a Node as on the bare protocol: the node's
// install is what calls abandonPending.
func TestFenceOvertakenIsAbandoned(t *testing.T) {
	for _, newM := range []func(*testing.T, proto.NodeID) *machine{newMachine, newNodeMachine} {
		m := newM(t, 0)
		held := m.fence(1)

		other := m.cfg.Clone()
		other.Epoch, other.Leader = 3, 2
		outs := m.msg(NodeAddr(2), &proto.ConfigPush{Config: other})
		r, _ := replyTo(t, outs, "client/op").(*proto.ReconfigReply)
		if r == nil || r.Status != proto.StRetry {
			t.Fatalf("node host %v: reply %+v, want StRetry", m.node != nil, r)
		}
		if got := pushes(t, outs); len(got) != 0 || m.pending != nil || m.cfg.Epoch != 3 {
			t.Fatalf("node host %v: pushed %v, pending %v, epoch %d", m.node != nil, got, m.pending, m.cfg.Epoch)
		}
		if outs := m.msg(NodeAddr(1), &proto.ConfigAck{Epoch: held.Config.Epoch}); len(outs) != 0 {
			t.Fatalf("node host %v: late fence ack produced %+v", m.node != nil, outs)
		}
	}
}

// TestProposalsWhileFencePending: every other change that arrives
// while a fence is pending gets propose's one answer — StRetry to a
// requester that has a reply message, silence to a Join (its sender
// re-announces every tick) — and leaves the pending change alone.
func TestProposalsWhileFencePending(t *testing.T) {
	m := newMachine(t, 0)
	m.fence(1)
	pending := m.pending

	outs := m.msg("client/b", &proto.Reconfig{Req: 2, Op: proto.ReconfigLeave, Node: 2})
	if r, _ := replyTo(t, outs, "client/b").(*proto.ReconfigReply); len(outs) != 1 || r == nil || r.Status != proto.StRetry {
		t.Fatalf("second resize: %+v", outs)
	}
	outs = m.msg("client/c", &proto.Reconfig{Req: 3, Op: proto.ReconfigCreate, Scheme: proto.Rep(2, 3)})
	if r, _ := replyTo(t, outs, "client/c").(*proto.ReconfigReply); len(outs) != 1 || r == nil || r.Status != proto.StRetry {
		t.Fatalf("create memgest: %+v", outs)
	}
	if outs = m.msg(NodeAddr(2), &proto.Join{Node: 2}); len(outs) != 0 {
		t.Fatalf("join: %+v", outs)
	}
	if m.pending != pending || m.cfg.Epoch != 1 {
		t.Fatalf("pending change disturbed: %v at epoch %d", m.pending, m.cfg.Epoch)
	}
}

// TestLeaderTakeoverIsOneEpoch: the successor's takeover — new leader,
// dead leader's shard handed to a spare — is one configuration change.
func TestLeaderTakeoverIsOneEpoch(t *testing.T) {
	m := newMachine(t, 1)
	m.membership.tick(m.now) // arms the follower's heartbeat timer
	m.now += m.failAfter + step
	m.membership.tick(m.now)
	outs := m.flush()

	cfg := m.cfg
	if cfg.Epoch != 2 || cfg.Leader != 1 || cfg.Coords[0] != 5 || isMember(cfg, 0) {
		t.Fatalf("after takeover: epoch %d leader %d coords %v", cfg.Epoch, cfg.Leader, cfg.Coords)
	}
	got := pushes(t, outs)
	for to, epoch := range got {
		if epoch != 2 {
			t.Fatalf("pushed epoch %d to %s", epoch, to)
		}
	}
	// The dead leader held shard 0 and nothing else.
	if len(got) != 5 || m.metrics.ShardsMoved.Load() != 1 {
		t.Fatalf("takeover announced to %v, ShardsMoved %d", got, m.metrics.ShardsMoved.Load())
	}
}

// reconfigOps is one request of every op, each a change the Figure 3
// cluster can make in turn from its boot configuration.
func reconfigOps() []*proto.Reconfig {
	return []*proto.Reconfig{
		{Req: 1, Op: proto.ReconfigJoin, Node: 9},
		{Req: 2, Op: proto.ReconfigLeave, Node: 2},
		{Req: 3, Op: proto.ReconfigCreate, Scheme: proto.Rep(2, 3)},
		{Req: 4, Op: proto.ReconfigDelete, Memgest: mgREP2},
		{Req: 5, Op: proto.ReconfigSetDefault, Memgest: mgSRS32},
	}
}

// TestReconfigRepliesCarryEpoch: every op is one change and one epoch,
// and its reply names the epoch it installed — a leave once the
// departing node acknowledged its fence, every other op at once. Only a
// create's reply carries a memgest, the ID it gave; an op that changes
// nothing is answered at the current epoch.
func TestReconfigRepliesCarryEpoch(t *testing.T) {
	m := newMachine(t, 0)
	for i, op := range reconfigOps() {
		want := proto.Epoch(i + 2)
		outs := m.msg("client/op", op)
		if op.Op == proto.ReconfigLeave {
			outs = m.msg(NodeAddr(op.Node), &proto.ConfigAck{Epoch: want})
		}
		var mg proto.MemgestID
		if op.Op == proto.ReconfigCreate {
			mg = m.cfg.Memgests[len(m.cfg.Memgests)-1].ID
		}
		r, _ := replyTo(t, outs, "client/op").(*proto.ReconfigReply)
		if r == nil || r.Req != op.Req || r.Status != proto.StOK || r.Epoch != want || m.cfg.Epoch != want || r.Memgest != mg {
			t.Fatalf("op %d: reply %+v, leader at epoch %d; want StOK at epoch %d, memgest %d", op.Op, r, m.cfg.Epoch, want, mg)
		}
	}
	if m.cfg.Default != mgSRS32 || m.cfg.Memgest(mgREP2) != nil || m.cfg.Memgest(8) == nil || isMember(m.cfg, 2) || !isMember(m.cfg, 9) {
		t.Fatalf("after every op: %+v", m.cfg)
	}
	outs := m.msg("client/op", &proto.Reconfig{Req: 6, Op: proto.ReconfigSetDefault, Memgest: mgSRS32})
	if r, _ := replyTo(t, outs, "client/op").(*proto.ReconfigReply); len(outs) != 1 || r == nil || r.Status != proto.StOK || r.Epoch != 6 || m.cfg.Epoch != 6 {
		t.Fatalf("a set-default that changes nothing: %+v, leader at epoch %d", outs, m.cfg.Epoch)
	}
}

// TestReconfigUnknownOp: an op nobody defined is refused StInvalid, by
// the leader and by any other node alike, and changes nothing.
func TestReconfigUnknownOp(t *testing.T) {
	for _, id := range []proto.NodeID{0, 1} {
		m := newMachine(t, id)
		outs := m.msg("client/op", &proto.Reconfig{Req: 7, Op: 99, Node: 3})
		r, _ := replyTo(t, outs, "client/op").(*proto.ReconfigReply)
		if len(outs) != 1 || r == nil || r.Req != 7 || r.Status != proto.StInvalid || m.cfg.Epoch != 1 {
			t.Fatalf("node %d answered %+v at epoch %d", id, outs, m.cfg.Epoch)
		}
	}
}

// TestRejoiningAnswersReconfigRetry: a node quarantined after a restart
// answers every op StRetry, so the operator re-resolves and finds the
// leader, even when its boot configuration names the node leader.
func TestRejoiningAnswersReconfigRetry(t *testing.T) {
	n := NewRejoining(0, bootConfig(t), figure3Spec().Opts)
	for _, op := range append(reconfigOps(), &proto.Reconfig{Req: 6, Op: 99}) {
		outs := n.deliver(time.Millisecond, "client/op", op)
		r, _ := replyTo(t, outs, "client/op").(*proto.ReconfigReply)
		if len(outs) != 1 || r == nil || r.Req != op.Req || r.Status != proto.StRetry {
			t.Fatalf("op %d: %+v", op.Op, outs)
		}
	}
	if !n.Rejoining() || n.cfg.Epoch != 1 {
		t.Fatalf("rejoining %v at epoch %d", n.Rejoining(), n.cfg.Epoch)
	}
}

// TestNoPacketRunsTheTimer: a node's timer is its runner's to fire. A
// message without fields would decode from its tag byte alone, and
// none may make a leader do what its tick does: heartbeat the members.
func TestNoPacketRunsTheTimer(t *testing.T) {
	for b := 0; b < 256; b++ {
		msg, err := proto.Decode([]byte{byte(b)})
		if err != nil {
			continue
		}
		n := New(0, bootConfig(t), figure3Spec().Opts)
		for _, o := range n.deliver(time.Millisecond, "client/x", msg) {
			if _, ok := o.Msg.(*proto.Heartbeat); ok {
				t.Fatalf("the one-byte packet %d (%T) from a client made the leader heartbeat %s", b, msg, o.To)
			}
		}
	}
}

// TestRejoinLeavesQuarantineOnNonLeaderPush pins step 2 of ROADMAP item
// 28 as the protocol behaves today: node 0, the boot leader, restarts
// quarantined and sends its first Join to node 1, which is not the
// leader and answers with its own configuration — epoch 1, leader 0.
// Node 0 installs it and leaves quarantine as the leader of epoch 1,
// on a push no leader proposed for it. Item 28(b) inverts the
// assertion: a rejoining node leaves quarantine only on a push from the
// leader that the pushed configuration names, and never into that
// configuration's leadership.
func TestRejoinLeavesQuarantineOnNonLeaderPush(t *testing.T) {
	restarted := bareMembership(t, 0, bootConfig(t))
	restarted.rejoining = true
	peer := newMachine(t, 1)

	restarted.membership.tick(time.Millisecond)
	joins := restarted.flush()
	if len(joins) != 1 || joins[0].To != NodeAddr(1) {
		t.Fatalf("first Join went %+v, want to node 1 alone", joins)
	}
	outs := peer.msg(NodeAddr(0), joins[0].Msg)
	if len(outs) != 1 || outs[0].To != NodeAddr(0) {
		t.Fatalf("node 1 answered the Join with %+v", outs)
	}
	push := outs[0].Msg.(*proto.ConfigPush)
	if push.Config.Epoch != 1 || push.Config.Leader != 0 {
		t.Fatalf("node 1 pushed epoch %d leader %d", push.Config.Epoch, push.Config.Leader)
	}
	restarted.msg(NodeAddr(1), push)
	if restarted.rejoining || !restarted.IsLeader() || restarted.cfg.Epoch != 1 {
		t.Fatalf("rejoining %v, leader %v at epoch %d", restarted.rejoining, restarted.IsLeader(), restarted.cfg.Epoch)
	}
}
