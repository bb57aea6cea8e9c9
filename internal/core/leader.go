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

// leaderTick sends heartbeats and checks follower liveness.
func (n *Node) leaderTick() {
	for _, id := range n.cfg.AllNodes() {
		if id == n.id {
			continue
		}
		n.sendNode(id, &proto.Heartbeat{Epoch: n.cfg.Epoch})
	}
	if n.pendingResize != nil {
		// A leave fence is in flight; it owns reconfiguration until it
		// completes (failure detection would race it to the same epoch).
		n.resizeTick()
		return
	}
	// Failure detection: promote a spare for the first node that went
	// silent (one reconfiguration at a time keeps reasoning simple).
	for _, id := range n.cfg.AllNodes() {
		if id == n.id {
			continue
		}
		last, ok := n.lastAck[id]
		if !ok {
			n.lastAck[id] = n.now
			continue
		}
		if n.now-last > n.opts.FailAfter {
			n.replaceNode(id)
			return
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
	n.becomeLeaderAndReplace(n.cfg.Leader)
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

// becomeLeaderAndReplace assumes leadership with a bumped epoch and
// substitutes a spare for the dead node's roles.
func (n *Node) becomeLeaderAndReplace(dead proto.NodeID) {
	cfg := n.cfg.Clone()
	cfg.Epoch++
	cfg.Leader = n.id
	n.cfg = cfg
	for _, id := range cfg.AllNodes() {
		n.lastAck[id] = n.now
	}
	n.replaceNode(dead)
}

// replaceNode builds and broadcasts a new configuration in which the
// first spare takes over every role of the failed node. With no spare
// available the node is removed from the spare list only; coordinator
// and redundancy roles it held become unavailable until an operator
// adds capacity — matching the paper's deployment assumption of
// provisioned spares.
func (n *Node) replaceNode(dead proto.NodeID) {
	cfg := n.cfg.Clone()
	cfg.Epoch++
	delete(n.lastAck, dead)
	stripRoles(cfg, dead)
	n.pushConfig(cfg)
}

// pushConfig installs a new configuration locally and replicates it to
// every node (the membership log entry of Section 5.5: "the leader
// replicates an entry over the log, which consists of the new
// responsibilities for all of the nodes").
func (n *Node) pushConfig(cfg *proto.Config) {
	n.installConfig(cfg, false)
	for _, id := range cfg.AllNodes() {
		if id == n.id {
			continue
		}
		n.sendNode(id, &proto.ConfigPush{Config: cfg.Clone()})
	}
}

func (n *Node) handleHeartbeat(from string, m *proto.Heartbeat) {
	if m.Epoch < n.cfg.Epoch {
		return // stale leader
	}
	n.lastHeartbeat = n.now
	n.send(from, &proto.HeartbeatAck{Epoch: m.Epoch})
}

func (n *Node) handleHeartbeatAck(from string, m *proto.HeartbeatAck) {
	if !n.IsLeader() || m.Epoch != n.cfg.Epoch {
		return
	}
	if id, ok := parseNodeAddr(from); ok {
		n.lastAck[id] = n.now
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
	n.installConfig(m.Config, false)
	n.lastHeartbeat = n.now
	n.send(from, &proto.ConfigAck{Epoch: m.Config.Epoch})
}

// handleCreateMemgest processes the leader-only createMemgest request:
// validate the descriptor, place its redundancy, assign an ID, and
// replicate the new configuration.
func (n *Node) handleCreateMemgest(from string, m *proto.CreateMemgest) {
	if !n.IsLeader() {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StWrongNode})
		return
	}
	if n.pendingResize != nil {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StRetry})
		return
	}
	sc := m.Scheme
	reject := func() {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StInvalid})
	}
	if err := sc.Validate(); err != nil {
		reject()
		return
	}
	s, d := len(n.cfg.Coords), len(n.cfg.Redundant)
	if sc.S != s {
		reject() // every memgest in the group shares the same s
		return
	}
	switch sc.Kind {
	case proto.SchemeSRS:
		if sc.M > d {
			reject() // d bounds the number of parity nodes
			return
		}
	case proto.SchemeRep:
		if sc.R > s+d {
			reject() // s+d bounds the replication factor
			return
		}
	}
	id := n.nextMgID
	n.nextMgID++
	cfg := n.cfg.Clone()
	cfg.Epoch++
	cfg.Memgests = append(cfg.Memgests, proto.MemgestInfo{
		ID:        id,
		Scheme:    sc,
		Redundant: append([]proto.NodeID(nil), cfg.Redundant...),
	})
	if cfg.Default == 0 {
		cfg.Default = id
	}
	n.pushConfig(cfg)
	n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StOK, Memgest: id, Scheme: sc})
}

// handleDeleteMemgest removes a memgest cluster-wide. Keys stored only
// in it become unavailable; callers are expected to have moved them.
func (n *Node) handleDeleteMemgest(from string, m *proto.DeleteMemgest) {
	if !n.IsLeader() {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StWrongNode})
		return
	}
	if n.pendingResize != nil {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StRetry})
		return
	}
	if n.cfg.Memgest(m.Memgest) == nil {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StNoMemgest})
		return
	}
	cfg := n.cfg.Clone()
	cfg.Epoch++
	for i := range cfg.Memgests {
		if cfg.Memgests[i].ID == m.Memgest {
			cfg.Memgests = append(cfg.Memgests[:i], cfg.Memgests[i+1:]...)
			break
		}
	}
	if cfg.Default == m.Memgest {
		cfg.Default = 0
		if len(cfg.Memgests) > 0 {
			cfg.Default = cfg.Memgests[0].ID
		}
	}
	n.pushConfig(cfg)
	n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StOK, Memgest: m.Memgest})
}

// handleSetDefault changes the memgest used by puts without an
// explicit memgest argument.
func (n *Node) handleSetDefault(from string, m *proto.SetDefault) {
	if !n.IsLeader() {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StWrongNode})
		return
	}
	if n.pendingResize != nil {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StRetry})
		return
	}
	if n.cfg.Memgest(m.Memgest) == nil {
		n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StNoMemgest})
		return
	}
	cfg := n.cfg.Clone()
	cfg.Epoch++
	cfg.Default = m.Memgest
	n.pushConfig(cfg)
	n.send(from, &proto.MemgestReply{Req: m.Req, Status: proto.StOK, Memgest: m.Memgest})
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
