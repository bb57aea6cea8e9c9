package core

import (
	"sort"

	"ring/internal/proto"
)

// This file implements the crash-restart half of the membership
// protocol: a node that comes back after a crash has lost its entire
// in-memory state (the paper's servers are volatile stores), so it
// must not resume any role it still holds in the configuration. It
// boots in a quarantined "rejoining" state, announces itself with a
// Join message, and waits for the leader to strip its stale roles and
// re-admit it as a spare. The chaos harness (internal/sim, cmd/
// ringchaos) exercises this path continuously.

// NewRejoining creates a node restarting after a crash with empty
// state. It knows only the (possibly stale) configuration it booted
// from — used purely to locate peers — and installs no data roles
// from it. Until a leader re-admits it via ConfigPush it drops all
// replication, recovery, and membership traffic (an amnesiac replica
// acking appends would silently weaken quorums) and answers client
// operations with StRetry.
func NewRejoining(id proto.NodeID, cfg *proto.Config, opts Options) *Node {
	n := newNode(id, opts)
	n.cfg, n.rejoining = cfg, true
	return n
}

// Rejoining reports whether the node is quarantined awaiting
// re-admission.
func (n *Node) Rejoining() bool { return n.rejoining }

// handleRejoining is the restricted message dispatch of a quarantined
// node: configuration pushes are processed (they are how the node is
// re-admitted), client operations get StRetry so callers re-resolve
// and retry, and everything else — heartbeats, replication traffic,
// recovery fetches addressed to state this node no longer has — is
// dropped on the floor.
func (n *Node) handleRejoining(from string, msg proto.Message) {
	switch m := msg.(type) {
	case *proto.ConfigPush:
		n.handleConfigPush(from, m)
	case *proto.Resolve:
		// The boot config is stale but still routes the client to live
		// nodes; a wrong coordinator answers StWrongNode and the client
		// re-resolves.
		n.send(from, &proto.ResolveReply{Req: m.Req, Config: n.cfg.Clone()})
	case *proto.Put:
		n.refuse(from, m.Req, refRetry)
	case *proto.Get:
		n.send(from, proto.New(proto.GetReply{Req: m.Req, Status: proto.StRetry}))
	case *proto.Delete:
		n.refuse(from, m.Req, refRetry)
	case *proto.Move:
		n.refuse(from, m.Req, refRetry)
	case *proto.Reconfig:
		n.send(from, &proto.ReconfigReply{Req: m.Req, Status: proto.StRetry})
	}
}

// joinTick periodically re-announces a rejoining node: first to the
// leader of its boot configuration, then round-robin over every other
// known peer (the boot leader may itself be dead). Join is idempotent
// on the receiving side, so re-sending until a ConfigPush lands is
// safe.
func (n *Node) joinTick() {
	ids := n.cfg.AllNodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	peers := ids[:0:0]
	for _, id := range ids {
		if id != n.id {
			peers = append(peers, id)
		}
	}
	if len(peers) == 0 {
		return
	}
	target := n.cfg.Leader
	if target == n.id || n.joinAttempts > 0 {
		target = peers[n.joinAttempts%len(peers)]
	}
	n.joinAttempts++
	n.sendNode(target, &proto.Join{Node: n.id, Epoch: n.cfg.Epoch, Durable: n.joinDurable()})
}

// handleJoin processes a restarted node's announcement. Non-leaders
// point the joiner at the current configuration (and therefore the
// current leader). The leader re-admits it: a node that recovered
// committed state from its data directory keeps the roles it holds and
// delta-syncs from the group under the takeover path; an amnesiac one
// has them handed to a spare and comes back as a spare itself, in one
// configuration change. Join has no reply of its own — a refused
// proposal (a fence is pending) is retried by the joiner's next tick,
// and a joiner the configuration already has in the place it asks for
// missed the push that put it there, so it is sent again.
func (n *Node) handleJoin(from string, m *proto.Join) {
	if m.Node == n.id {
		return
	}
	if !n.IsLeader() {
		n.sendConfig(m.Node, n.cfg)
		return
	}
	if _, member := n.lastAck[m.Node]; member {
		n.lastAck[m.Node] = n.now
	}
	d := readmit(m.Node)
	if m.Durable {
		d = admit(m.Node)
	}
	was := n.cfg.Epoch
	n.propose(d, proto.NilNode, func(st proto.Status, _ uint32, epoch proto.Epoch) {
		if st == proto.StOK && epoch == was {
			n.sendConfig(m.Node, n.cfg)
		}
	})
}
