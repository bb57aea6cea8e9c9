package core

import (
	"slices"
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
	for _, id := range n.cfg.AllNodes() {
		if id != n.id && n.now-n.lastAck[id] > n.opts.FailAfter && n.propose(evict(id), proto.NilNode, noReply) {
			break
		}
	}
	for _, id := range n.cfg.AllNodes() {
		if id != n.id {
			n.sendNode(id, &proto.Heartbeat{Epoch: n.cfg.Epoch})
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
	n.send(from, &proto.HeartbeatAck{Epoch: n.cfg.Epoch})
}

// handleHeartbeatAck records a member's liveness and repairs a lost
// ConfigPush: a member still below the leader's epoch is sent the
// current configuration again, once per heartbeat it answers.
func (n *Node) handleHeartbeatAck(from string, m *proto.HeartbeatAck) {
	id, ok := parseNodeAddr(from)
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

// memgestReply answers a memgest verb; id and scheme ride only on
// success.
func (n *Node) memgestReply(from string, req proto.ReqID, id proto.MemgestID, sc proto.Scheme) replyFunc {
	return func(st proto.Status, _ uint32, _ proto.Epoch) {
		r := &proto.MemgestReply{Req: req, Status: st}
		if st == proto.StOK {
			r.Memgest, r.Scheme = id, sc
		}
		n.send(from, r)
	}
}

// handleCreateMemgest processes the leader-only createMemgest request:
// validate the descriptor, place its redundancy, assign an ID, and
// replicate the new configuration.
func (n *Node) handleCreateMemgest(from string, m *proto.CreateMemgest) {
	sc, id := m.Scheme, n.nextMgID // installConfig moves nextMgID past it
	n.propose(func(cfg *proto.Config) proto.Status {
		s, d := len(cfg.Coords), len(cfg.Redundant)
		switch {
		case sc.Validate() != nil,
			sc.S != s,                                // every memgest in the group shares the same s
			sc.Kind == proto.SchemeSRS && sc.M > d,   // d bounds the number of parity nodes
			sc.Kind == proto.SchemeRep && sc.R > s+d: // s+d bounds the replication factor
			return proto.StInvalid
		}
		cfg.Memgests = append(cfg.Memgests, proto.MemgestInfo{
			ID:        id,
			Scheme:    sc,
			Redundant: slices.Clone(cfg.Redundant),
		})
		if cfg.Default == 0 {
			cfg.Default = id
		}
		return proto.StOK
	}, proto.NilNode, n.memgestReply(from, m.Req, id, sc))
}

// handleDeleteMemgest removes a memgest cluster-wide. Keys stored only
// in it become unavailable; callers are expected to have moved them.
func (n *Node) handleDeleteMemgest(from string, m *proto.DeleteMemgest) {
	n.propose(func(cfg *proto.Config) proto.Status {
		i := slices.IndexFunc(cfg.Memgests, func(mi proto.MemgestInfo) bool { return mi.ID == m.Memgest })
		if i < 0 {
			return proto.StNoMemgest
		}
		cfg.Memgests = slices.Delete(cfg.Memgests, i, i+1)
		if cfg.Default == m.Memgest {
			cfg.Default = 0
			if len(cfg.Memgests) > 0 {
				cfg.Default = cfg.Memgests[0].ID
			}
		}
		return proto.StOK
	}, proto.NilNode, n.memgestReply(from, m.Req, m.Memgest, proto.Scheme{}))
}

// handleSetDefault changes the memgest used by puts without an
// explicit memgest argument.
func (n *Node) handleSetDefault(from string, m *proto.SetDefault) {
	n.propose(func(cfg *proto.Config) proto.Status {
		if cfg.Memgest(m.Memgest) == nil {
			return proto.StNoMemgest
		}
		cfg.Default = m.Memgest
		return proto.StOK
	}, proto.NilNode, n.memgestReply(from, m.Req, m.Memgest, proto.Scheme{}))
}

// handleResize processes an operator's join or leave. A join is a pure
// configuration broadcast; a leave is fenced behind the departing node.
func (n *Node) handleResize(from string, m *proto.Resize) {
	req := m.Req // a fenced leave answers after this handler returned
	reply := func(st proto.Status, moved uint32, epoch proto.Epoch) {
		n.send(from, &proto.ResizeReply{Req: req, Status: st, Moved: moved, Epoch: epoch})
	}
	switch m.Op {
	case proto.ResizeJoin:
		n.propose(admit(m.Node), proto.NilNode, reply)
	case proto.ResizeLeave:
		n.propose(leave(m.Node), m.Node, reply)
	default:
		reply(proto.StInvalid, 0, 0)
	}
}

// handleGetDescriptor serves a memgest's scheme from any node.
func (n *Node) handleGetDescriptor(from string, m *proto.GetDescriptor) {
	mi := n.cfg.Memgest(m.Memgest)
	if mi == nil {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StNoMemgest})
		return
	}
	n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StOK, Memgest: mi.ID, Scheme: mi.Scheme})
}
