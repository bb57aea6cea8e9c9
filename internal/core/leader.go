package core

import (
	"sort"

	"ring/internal/proto"
)

// handleTick drives all time-based behaviour of the node.
func (n *Node) handleTick() {
	// A tick bounds how long a mutation nobody acknowledges (a replica's
	// commit marker, a purge) stays unsynced.
	n.tickOwed = true
	if n.rejoining {
		n.joinTick()
		return
	}
	if n.IsLeader() {
		n.leaderTick()
	} else {
		n.followerTick()
	}
	n.recoveryTick()
	n.moveTick()
}

// leaderTick drives a pending fence, checks follower liveness, and
// sends heartbeats — last, so that they carry the epoch of whatever the
// tick announced and a member that got the announce acks that epoch.
func (n *Node) leaderTick() {
	n.reconfigTick()
	// Failure detection: one reconfiguration at a time keeps reasoning
	// simple, so evict the first silent node there is a change to make
	// for (with no spare left a dead role-holder keeps its slots, and
	// must not hide the silent nodes after it).
	for _, id := range n.members {
		if id != n.id && n.now-n.lastAck[id] > n.opts.FailAfter && n.propose(evict(id), proto.NilNode, noReply) {
			break
		}
	}
	for _, id := range n.members {
		if id != n.id {
			n.sendNode(id, proto.New(proto.Heartbeat{Epoch: n.cfg.Epoch}))
		}
	}
}

// followerTick checks leader liveness and, if this node is the
// designated successor, takes over the leadership.
func (n *Node) followerTick() {
	if n.lastHeartbeat == 0 {
		n.lastHeartbeat = n.now
		return
	}
	if n.now-n.lastHeartbeat <= n.opts.FailAfter {
		return
	}
	// The successor is the lowest-ID node other than the dead leader.
	// Everyone evaluates the same deterministic rule; conflicting
	// configs are resolved by epoch (then leader ID) on installation.
	succ := n.successor(n.cfg.Leader)
	if succ != n.id {
		return
	}
	n.lastHeartbeat = n.now // avoid re-triggering while reconfiguring
	n.propose(takeover(n.id, n.cfg.Leader), proto.NilNode, noReply)
}

// successor returns the lowest node ID in the config excluding the
// given (presumed dead) node.
func (n *Node) successor(dead proto.NodeID) proto.NodeID {
	ids := n.cfg.AllNodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if id != dead {
			return id
		}
	}
	return n.id
}

func (n *Node) handleHeartbeat(from string, m *proto.Heartbeat) {
	if m.Epoch < n.cfg.Epoch {
		return // stale leader
	}
	n.lastHeartbeat = n.now
	// The ack says what this node has installed, not what it was sent:
	// a leader ahead of it re-pushes.
	n.send(from, proto.New(proto.HeartbeatAck{Epoch: n.cfg.Epoch}))
}

// handleHeartbeatAck records a member's liveness and repairs a lost
// ConfigPush: a member still below the leader's epoch is sent the
// current configuration again, once per heartbeat it answers.
func (n *Node) handleHeartbeatAck(from string, m *proto.HeartbeatAck) {
	id, ok := ParseNodeAddr(from)
	if !ok || !n.IsLeader() {
		return
	}
	if _, member := n.lastAck[id]; !member {
		return // an ack in flight must not outlive its sender's membership
	}
	n.lastAck[id] = n.now
	if m.Epoch < n.cfg.Epoch {
		n.repush(id, n.cfg)
	}
}

func (n *Node) handleConfigPush(from string, m *proto.ConfigPush) {
	if m.Config.Epoch < n.cfg.Epoch {
		return
	}
	if m.Config.Epoch == n.cfg.Epoch && !n.rejoining {
		// Same epoch: deterministic tie-break on leader ID keeps all
		// nodes convergent if two successors raced. A rejoining node
		// is exempt: its boot config may carry the current epoch (no
		// failure was ever detected), and the push is how it learns it
		// has been re-admitted.
		if m.Config.Leader >= n.cfg.Leader {
			return
		}
	}
	n.installConfig(m.Config)
	n.lastHeartbeat = n.now
	n.send(from, &proto.ConfigAck{Epoch: m.Config.Epoch})
}

// handleReconfig runs an operator's change at the leader: each op is a
// delta handed to propose, and only a leave is fenced behind the node
// it removes.
func (n *Node) handleReconfig(from string, m *proto.Reconfig) {
	req, fence, id := m.Req, proto.NilNode, proto.MemgestID(0) // a fenced leave answers after this handler returned
	reply := func(st proto.Status, moved uint32, epoch proto.Epoch) {
		r := &proto.ReconfigReply{Req: req, Status: st, Moved: moved, Epoch: epoch}
		if st == proto.StOK {
			r.Memgest = id
		}
		n.send(from, r)
	}
	var d delta
	switch m.Op {
	case proto.ReconfigJoin:
		d = admit(m.Node)
	case proto.ReconfigLeave:
		d, fence = leave(m.Node), m.Node
	case proto.ReconfigCreate:
		id = n.nextMgID // installConfig moves nextMgID past it
		d = createMemgest(id, m.Scheme)
	case proto.ReconfigDelete:
		d = deleteMemgest(m.Memgest)
	case proto.ReconfigSetDefault:
		d = setDefault(m.Memgest)
	default:
		reply(proto.StInvalid, 0, n.cfg.Epoch)
		return
	}
	n.propose(d, fence, reply)
}
