package core

import (
	"slices"
	"time"

	"ring/internal/proto"
)

// This file is the leader's configuration-change machine, the
// membership log entry of Section 5.5 ("the leader replicates an entry
// over the log, which consists of the new responsibilities for all of
// the nodes"). Every change — a detected failure, a leader takeover, a
// rejoin, an operator's join or leave, a memgest created, deleted or
// made the default — is a delta handed to propose, and goes through
// the same states:
//
//	proposed  → the delta applied to a copy of the configuration, one
//	            epoch above it;
//	fenced    → (a leave only) pushed to the departing node alone and
//	            held back until its ConfigAck, so it stops serving
//	            before any substitute starts recovering its roles;
//	announced → installed on the leader, pushed to every member, the
//	            requester answered;
//	acknowledged → every member's HeartbeatAck carries the epoch it has
//	            installed; one below the leader's is answered with the
//	            current configuration again (handleHeartbeatAck).
//
// A fence is re-pushed every tick and, once the departing node has
// been silent past FailAfter, announced anyway: the held configuration
// already excludes it, which is what a failover would have built. Any
// configuration installed from elsewhere while a change is pending
// voids it (abandonPending).

// delta edits a copy of the configuration into the one proposed. It
// returns StOK, or the status the requester is refused with; the copy
// is then discarded. A delta depends on nothing but the configuration
// it is handed, so the same one can be judged on any node.
type delta func(cfg *proto.Config) proto.Status

// replyFunc tells a change's requester how it ended: StOK with the
// placement slots reassigned and the epoch now installed, or the
// refusal.
type replyFunc func(st proto.Status, moved uint32, epoch proto.Epoch)

// noReply is the requester of changes the cluster asks of itself.
func noReply(proto.Status, uint32, proto.Epoch) {}

// change is a proposed configuration held back behind a fence.
type change struct {
	cfg     *proto.Config
	fence   proto.NodeID
	moved   uint32
	started time.Duration
	reply   replyFunc
}

// holdsRole reports whether id is assigned a coordinator, group
// redundancy or memgest redundancy slot.
func holdsRole(cfg *proto.Config, id proto.NodeID) bool {
	if slices.Contains(cfg.Coords, id) || slices.Contains(cfg.Redundant, id) {
		return true
	}
	for i := range cfg.Memgests {
		if slices.Contains(cfg.Memgests[i].Redundant, id) {
			return true
		}
	}
	return false
}

// isMember reports whether id appears anywhere in the configuration.
func isMember(cfg *proto.Config, id proto.NodeID) bool {
	return holdsRole(cfg, id) || slices.Contains(cfg.Spares, id)
}

// evict takes node out of the configuration: dropped if it is a spare,
// and the first spare substituted into every slot it holds. A spare is
// consumed only for a node that holds a slot. With none left the slots
// stay assigned to node — unavailable until it rejoins and re-recovers
// them through the takeover path, or an operator adds capacity (the
// paper assumes provisioned spares).
func evict(node proto.NodeID) delta {
	return func(cfg *proto.Config) proto.Status {
		if i := slices.Index(cfg.Spares, node); i >= 0 {
			cfg.Spares = slices.Delete(cfg.Spares, i, i+1)
		}
		if !holdsRole(cfg, node) || len(cfg.Spares) == 0 {
			return proto.StOK
		}
		spare := cfg.Spares[0]
		cfg.Spares = slices.Delete(cfg.Spares, 0, 1)
		substitute := func(ids []proto.NodeID) {
			for i, id := range ids {
				if id == node {
					ids[i] = spare
				}
			}
		}
		substitute(cfg.Coords)
		substitute(cfg.Redundant)
		for i := range cfg.Memgests {
			substitute(cfg.Memgests[i].Redundant)
		}
		return proto.StOK
	}
}

// admit appends node to the spares. No placement changes: a spare
// moves data only once a later evict hands it slots.
func admit(node proto.NodeID) delta {
	return func(cfg *proto.Config) proto.Status {
		if node == proto.NilNode {
			return proto.StInvalid
		}
		if !isMember(cfg, node) {
			cfg.Spares = append(cfg.Spares, node)
		}
		return proto.StOK
	}
}

// leave is evict for a node that is alive and asked to go, so it must
// vacate completely.
func leave(node proto.NodeID) delta {
	return func(cfg *proto.Config) proto.Status {
		switch {
		case node == cfg.Leader:
			return proto.StInvalid // the leader cannot fence itself
		case !isMember(cfg, node):
			return proto.StNotFound
		}
		evict(node)(cfg)
		if holdsRole(cfg, node) {
			return proto.StUnavailable // no spare to hand its slots to
		}
		return proto.StOK
	}
}

// readmit is the change an amnesiac restart asks for: whatever slots
// the node still holds are worthless, so they go to a spare and the
// node comes back as one.
func readmit(node proto.NodeID) delta {
	return func(cfg *proto.Config) proto.Status {
		if holdsRole(cfg, node) {
			evict(node)(cfg)
		}
		return admit(node)(cfg)
	}
}

// takeover makes self the leader in place of the dead one, whose roles
// go the way of any failed node's — one change, one epoch.
func takeover(self, dead proto.NodeID) delta {
	return func(cfg *proto.Config) proto.Status {
		cfg.Leader = self
		return evict(dead)(cfg)
	}
}

// propose is the one way a configuration changes. The delta is applied
// to a copy of the current configuration; the requester is refused
// with StWrongNode unless the result names this node leader, with
// StRetry while another change is pending, and with the delta's own
// status if it has one. A delta that changes nothing is answered StOK
// at the current epoch and proposes nothing. Otherwise the copy, one
// epoch up, is announced at once, or — given a fence — pushed to that
// node alone and announced on its ConfigAck. It reports whether a
// change was started.
func (n *Node) propose(d delta, fence proto.NodeID, reply replyFunc) bool {
	next := n.cfg.Clone()
	st := d(next)
	switch {
	case next.Leader != n.id:
		st = proto.StWrongNode
	case n.pendingChange != nil:
		st = proto.StRetry
	}
	if st != proto.StOK || sameConfig(n.cfg, next) {
		reply(st, 0, n.cfg.Epoch)
		return false
	}
	next.Epoch++
	p := &change{cfg: next, fence: fence, moved: configDelta(n.cfg, next), started: n.now, reply: reply}
	if fence == proto.NilNode {
		n.announce(p)
		return true
	}
	n.pendingChange = p
	n.sendConfig(fence, next)
	return true
}

// announce installs a proposed configuration and replicates it to its
// members. Substitutes recover the slots that changed hands through the
// normal takeover path; every other slot keeps its data where it is.
func (n *Node) announce(p *change) {
	n.pendingChange = nil
	n.installConfig(p.cfg)
	for _, id := range p.cfg.AllNodes() {
		if id != n.id {
			n.sendConfig(id, p.cfg)
		}
	}
	n.Metrics.ShardsMoved.Add(uint64(p.moved))
	p.reply(proto.StOK, p.moved, p.cfg.Epoch)
}

// sendConfig is the one place a configuration goes on the wire.
func (n *Node) sendConfig(to proto.NodeID, cfg *proto.Config) {
	n.sendNode(to, &proto.ConfigPush{Config: cfg.Clone()})
}

// repush sends a configuration its receiver was already sent once: a
// lost ConfigPush is repaired at the cadence of the heartbeat, and given
// up on when FailAfter evicts a receiver that never answers.
func (n *Node) repush(to proto.NodeID, cfg *proto.Config) {
	n.Metrics.ConfigRepushes.Inc()
	n.sendConfig(to, cfg)
}

// reconfigTick drives a pending fence from the leader's tick.
func (n *Node) reconfigTick() {
	p := n.pendingChange
	if p == nil {
		return
	}
	if n.now-p.started > n.opts.FailAfter {
		n.announce(p)
		return
	}
	n.repush(p.fence, p.cfg)
}

// handleConfigAck releases a pending fence once the departing node
// acknowledged the configuration that excludes it. Every other
// ConfigAck is informational: what a member has installed is read off
// its heartbeat acks.
func (n *Node) handleConfigAck(from string, m *proto.ConfigAck) {
	if p := n.pendingChange; p != nil && from == NodeAddr(p.fence) && m.Epoch == p.cfg.Epoch {
		n.announce(p)
	}
}

// abandonPending is installConfig's hook: a configuration that arrives
// from elsewhere while a change is pending replaced the one the change
// was computed against (leadership moved, or a competing leader's push
// won the tie-break). The requester retries against what is installed.
func (n *Node) abandonPending() {
	if p := n.pendingChange; p != nil {
		n.pendingChange = nil
		p.reply(proto.StRetry, 0, n.cfg.Epoch)
	}
}

// sameConfig reports whether two configurations assign the same
// responsibilities, whatever their epochs.
func sameConfig(a, b *proto.Config) bool {
	return a.Leader == b.Leader && a.Default == b.Default &&
		slices.Equal(a.Coords, b.Coords) && slices.Equal(a.Redundant, b.Redundant) &&
		slices.Equal(a.Spares, b.Spares) &&
		slices.EqualFunc(a.Memgests, b.Memgests, func(x, y proto.MemgestInfo) bool {
			return x.ID == y.ID && x.Scheme == y.Scheme && slices.Equal(x.Redundant, y.Redundant)
		})
}

// configDelta counts the placement slots that differ between two
// configurations: coordinator slots, group redundancy slots, and each
// surviving memgest's redundancy slots (matched by memgest ID; a
// memgest the old configuration did not have holds nothing to move).
// It is the data movement a reconfiguration induces — each changed
// slot is one shard of state its new owner must recover — and what the
// minimal-movement tests assert on.
func configDelta(oldCfg, newCfg *proto.Config) uint32 {
	var moved uint32
	count := func(old, cur []proto.NodeID) {
		for i, id := range cur {
			if i >= len(old) || old[i] != id {
				moved++
			}
		}
	}
	count(oldCfg.Coords, newCfg.Coords)
	count(oldCfg.Redundant, newCfg.Redundant)
	for i := range newCfg.Memgests {
		if omi := oldCfg.Memgest(newCfg.Memgests[i].ID); omi != nil {
			count(omi.Redundant, newCfg.Memgests[i].Redundant)
		}
	}
	return moved
}
