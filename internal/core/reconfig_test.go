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

// machine drives one node's configuration-change machine through
// HandleMessage and HandleTick and reads the []Out each one flushes: no
// router, no other state machine unless the test builds one.
type machine struct {
	t   *testing.T
	n   *Node
	now time.Duration
}

func newMachine(t *testing.T, id proto.NodeID) *machine {
	cfg, err := BootConfig(figure3Spec())
	if err != nil {
		t.Fatal(err)
	}
	return &machine{t: t, n: New(id, cfg, figure3Spec().Opts), now: time.Millisecond}
}

func (m *machine) msg(from string, msg proto.Message) []Out {
	return slices.Clone(m.n.deliver(m.now, from, msg))
}

// tick advances one heartbeat period. Every member but the silent ones
// answers the heartbeat before it, so the failure detector stays out of
// what the test is about.
func (m *machine) tick(silent ...proto.NodeID) []Out {
	for _, id := range m.n.cfg.AllNodes() {
		if id != m.n.id && !slices.Contains(silent, id) {
			m.n.deliver(m.now, NodeAddr(id), &proto.HeartbeatAck{Epoch: m.n.cfg.Epoch})
		}
	}
	m.now += m.n.opts.HeartbeatEvery
	return slices.Clone(m.n.tickOuts(m.now))
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
	outs := m.msg("client/op", &proto.Resize{Req: 1, Op: proto.ResizeLeave, Node: node})
	if len(outs) != 1 || outs[0].To != NodeAddr(node) {
		m.t.Fatalf("leave must push to the departing node alone, got %+v", outs)
	}
	push := outs[0].Msg.(*proto.ConfigPush)
	if push.Config.Epoch != 2 || isMember(push.Config, node) || m.n.cfg.Epoch != 1 {
		m.t.Fatalf("fence carries epoch %d (member=%v), leader at %d", push.Config.Epoch, isMember(push.Config, node), m.n.cfg.Epoch)
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
	if c := m.n.Metrics.ConfigRepushes.Load(); c != 1 {
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
	r, _ := replyTo(t, outs, "client/op").(*proto.ResizeReply)
	if r == nil || r.Status != proto.StOK || r.Moved != 1 || r.Epoch != 2 || m.n.cfg.Epoch != 2 {
		t.Fatalf("reply %+v, leader at epoch %d", r, m.n.cfg.Epoch)
	}
	if m.n.Metrics.ShardsMoved.Load() != 1 {
		t.Fatalf("ShardsMoved = %d, want 1", m.n.Metrics.ShardsMoved.Load())
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
	for m.n.cfg.Epoch == 1 {
		if m.now > 2*m.n.opts.FailAfter {
			t.Fatal("fence never completed")
		}
		outs = m.tick(4)
	}
	if m.now <= m.n.opts.FailAfter {
		t.Fatalf("fence completed at %v, before FailAfter", m.now)
	}
	r, _ := replyTo(t, outs, "client/op").(*proto.ResizeReply)
	if r == nil || r.Status != proto.StOK || r.Moved != held || r.Epoch != 2 {
		t.Fatalf("reply %+v, want StOK moved=%d epoch=2", r, held)
	}
	if got := pushes(t, outs); len(got) != 5 || m.n.cfg.Epoch != 2 || isMember(m.n.cfg, 4) {
		t.Fatalf("announce %v, leader at epoch %d", got, m.n.cfg.Epoch)
	}
	if c := m.n.Metrics.ShardsMoved.Load(); c != held {
		t.Fatalf("ShardsMoved = %d, want %d", c, held)
	}
}

// TestFenceOvertakenIsAbandoned: a configuration from another leader
// lands while the fence is pending. The operator is told StRetry, the
// held configuration is never announced, and the fence node's late ack
// releases nothing.
func TestFenceOvertakenIsAbandoned(t *testing.T) {
	m := newMachine(t, 0)
	held := m.fence(1)

	other := m.n.cfg.Clone()
	other.Epoch, other.Leader = 3, 2
	outs := m.msg(NodeAddr(2), &proto.ConfigPush{Config: other})
	r, _ := replyTo(t, outs, "client/op").(*proto.ResizeReply)
	if r == nil || r.Status != proto.StRetry {
		t.Fatalf("reply %+v, want StRetry", r)
	}
	if got := pushes(t, outs); len(got) != 0 || m.n.pendingChange != nil || m.n.cfg.Epoch != 3 {
		t.Fatalf("pushed %v, pending %v, epoch %d", got, m.n.pendingChange, m.n.cfg.Epoch)
	}
	if outs := m.msg(NodeAddr(1), &proto.ConfigAck{Epoch: held.Config.Epoch}); len(outs) != 0 {
		t.Fatalf("late fence ack produced %+v", outs)
	}
}

// TestProposalsWhileFencePending: every other change that arrives
// while a fence is pending gets propose's one answer — StRetry to a
// requester that has a reply message, silence to a Join (its sender
// re-announces every tick) — and leaves the pending change alone.
func TestProposalsWhileFencePending(t *testing.T) {
	m := newMachine(t, 0)
	m.fence(1)
	pending := m.n.pendingChange

	outs := m.msg("client/b", &proto.Resize{Req: 2, Op: proto.ResizeLeave, Node: 2})
	if r, _ := replyTo(t, outs, "client/b").(*proto.ResizeReply); len(outs) != 1 || r == nil || r.Status != proto.StRetry {
		t.Fatalf("second resize: %+v", outs)
	}
	outs = m.msg("client/c", &proto.CreateMemgest{Req: 3, Scheme: proto.Rep(2, 3)})
	if r, _ := replyTo(t, outs, "client/c").(*proto.MemgestReply); len(outs) != 1 || r == nil || r.Status != proto.StRetry {
		t.Fatalf("create memgest: %+v", outs)
	}
	if outs = m.msg(NodeAddr(2), &proto.Join{Node: 2}); len(outs) != 0 {
		t.Fatalf("join: %+v", outs)
	}
	if m.n.pendingChange != pending || m.n.cfg.Epoch != 1 {
		t.Fatalf("pending change disturbed: %v at epoch %d", m.n.pendingChange, m.n.cfg.Epoch)
	}
}

// TestLeaderTakeoverIsOneEpoch: the successor's takeover — new leader,
// dead leader's shard handed to a spare — is one configuration change.
func TestLeaderTakeoverIsOneEpoch(t *testing.T) {
	m := newMachine(t, 1)
	m.n.tickOuts(m.now) // arms the follower's heartbeat timer
	m.now += m.n.opts.FailAfter + m.n.opts.HeartbeatEvery
	outs := slices.Clone(m.n.tickOuts(m.now))

	cfg := m.n.cfg
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
	if len(got) != 5 || m.n.Metrics.ShardsMoved.Load() != 1 {
		t.Fatalf("takeover announced to %v, ShardsMoved %d", got, m.n.Metrics.ShardsMoved.Load())
	}
}
