package core

import (
	"slices"
	"sort"
	"time"

	"ring/internal/proto"
)

// This file is the configuration protocol, the membership log entry of
// Section 5.5 ("the leader replicates an entry over the log, which
// consists of the new responsibilities for all of the nodes"). Every
// change — a detected failure, a leader takeover, a rejoin, an
// operator's join or leave, a memgest created, deleted or made the
// default — is a delta handed to propose, and goes through the same
// states:
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
// voids it (abandonPending). A restarted node is quarantined until a
// push names it (NewRejoining, joinTick, handleJoin).

// membership is one node's side of the configuration protocol: the
// installed configuration and the state only the protocol reads. Its
// inputs are handle and tick, each given the time of the event; it
// reaches its host only through send and install, so a test can drive
// it with a recording host in place of a Node.
type membership struct {
	self           proto.NodeID
	failAfter, now time.Duration

	cfg *proto.Config
	// members is cfg.AllNodes(), which the leader's every tick walks.
	members []proto.NodeID
	// Leader state. lastAck holds when each member last answered a
	// heartbeat; adopt keeps its keys exactly the members. pending is a
	// change held back behind a fence (one at a time).
	lastAck  map[proto.NodeID]time.Duration
	nextMgID proto.MemgestID
	pending  *change
	// Follower state.
	lastHeartbeat time.Duration
	// rejoining is set on a node that restarted and is not yet
	// re-admitted; durableJoin, its Join's Durable bit, on one that
	// recovered committed state worth keeping its roles for.
	rejoining    bool
	joinAttempts int
	durableJoin  bool

	// send queues a message. install applies cfg, which replaced prev,
	// to the host, calling leaveQuarantine and then abandonPending at
	// their places in its own work (installConfig).
	send    func(to string, msg proto.Message)
	install func(prev, cfg *proto.Config)
	metrics *NodeMetrics
}

// IsLeader reports whether this node is the current leader.
func (m *membership) IsLeader() bool { return m.cfg != nil && m.cfg.Leader == m.self }

// handle is the protocol's message input. Anything but its six
// messages is not the protocol's and is ignored.
func (m *membership) handle(now time.Duration, from string, msg proto.Message) {
	m.now = now
	switch msg := msg.(type) {
	case *proto.Heartbeat:
		m.handleHeartbeat(from, msg)
	case *proto.HeartbeatAck:
		m.handleHeartbeatAck(from, msg)
	case *proto.ConfigPush:
		m.handleConfigPush(from, msg)
	case *proto.ConfigAck:
		m.handleConfigAck(from, msg)
	case *proto.Join:
		m.handleJoin(from, msg)
	case *proto.Reconfig:
		m.handleReconfig(from, msg)
	}
}

// tick is the protocol's timer input.
func (m *membership) tick(now time.Duration) {
	m.now = now
	switch {
	case m.rejoining:
		m.joinTick()
	case m.IsLeader():
		m.leaderTick()
	default:
		m.followerTick()
	}
}

// leaderTick drives a pending fence, checks follower liveness, and
// sends heartbeats — last, so that they carry the epoch of whatever the
// tick announced and a member that got the announce acks that epoch.
func (m *membership) leaderTick() {
	// A fence whose node stays silent is announced as a failover.
	if p := m.pending; p != nil && m.now-p.started > m.failAfter {
		m.announce(p)
	} else if p != nil {
		m.repush(p.fence, p.cfg)
	}
	// Failure detection: one reconfiguration at a time keeps reasoning
	// simple, so evict the first silent node there is a change to make
	// for (with no spare left a dead role-holder keeps its slots, and
	// must not hide the silent nodes after it).
	for _, id := range m.members {
		if id != m.self && m.now-m.lastAck[id] > m.failAfter && m.propose(evict(id), proto.NilNode, noReply) {
			break
		}
	}
	for _, id := range m.members {
		if id != m.self {
			m.send(NodeAddr(id), proto.New(proto.Heartbeat{Epoch: m.cfg.Epoch}))
		}
	}
}

// followerTick checks leader liveness and, if this node is the
// designated successor, takes over the leadership.
func (m *membership) followerTick() {
	if m.lastHeartbeat == 0 {
		m.lastHeartbeat = m.now
		return
	}
	if m.now-m.lastHeartbeat <= m.failAfter {
		return
	}
	// The successor is the lowest-ID node but the dead leader (this one
	// if there is none). Everyone evaluates the same rule; conflicting
	// configs are resolved by epoch (then leader ID) on installation.
	if ids := others(m.cfg, m.cfg.Leader); len(ids) > 0 && ids[0] != m.self {
		return
	}
	m.lastHeartbeat = m.now // avoid re-triggering while reconfiguring
	m.propose(takeover(m.self, m.cfg.Leader), proto.NilNode, noReply)
}

// others returns the configuration's nodes but one in ID order, which
// a successor is chosen in and a quarantined node's Join goes round.
func others(cfg *proto.Config, not proto.NodeID) []proto.NodeID {
	ids := slices.DeleteFunc(cfg.AllNodes(), func(id proto.NodeID) bool { return id == not })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (m *membership) handleHeartbeat(from string, msg *proto.Heartbeat) {
	if msg.Epoch < m.cfg.Epoch {
		return // stale leader
	}
	m.lastHeartbeat = m.now
	// The ack says what this node has installed, not what it was sent:
	// a leader ahead of it re-pushes.
	m.send(from, proto.New(proto.HeartbeatAck{Epoch: m.cfg.Epoch}))
}

// handleHeartbeatAck records a member's liveness and repairs a lost
// ConfigPush: a member still below the leader's epoch is sent the
// current configuration again, once per heartbeat it answers.
func (m *membership) handleHeartbeatAck(from string, msg *proto.HeartbeatAck) {
	id, ok := ParseNodeAddr(from)
	if !ok || !m.IsLeader() {
		return
	}
	if _, member := m.lastAck[id]; !member {
		return // an ack in flight must not outlive its sender's membership
	}
	m.lastAck[id] = m.now
	if msg.Epoch < m.cfg.Epoch {
		m.repush(id, m.cfg)
	}
}

func (m *membership) handleConfigPush(from string, msg *proto.ConfigPush) {
	if msg.Config.Epoch < m.cfg.Epoch {
		return
	}
	if msg.Config.Epoch == m.cfg.Epoch && !m.rejoining {
		// Same epoch: the lower leader ID wins, so all nodes converge if
		// two successors raced. A rejoining node is exempt: its boot
		// config may carry the current epoch (no failure was detected),
		// and the push is how it learns it has been re-admitted.
		if msg.Config.Leader >= m.cfg.Leader {
			return
		}
	}
	m.adopt(msg.Config)
	m.lastHeartbeat = m.now
	m.send(from, &proto.ConfigAck{Epoch: msg.Config.Epoch})
}

// adopt installs a configuration: the leader's liveness table and
// memgest IDs first, then the host's install.
func (m *membership) adopt(cfg *proto.Config) {
	prev := m.cfg
	m.cfg, m.members = cfg, cfg.AllNodes()
	if cfg.Leader == m.self {
		// Liveness is tracked for exactly the members. A node that left
		// is forgotten; one just learned of, and every one at the start
		// of a term, is not instantly declared dead on what an earlier
		// term or membership last heard.
		lastAck, led := make(map[proto.NodeID]time.Duration), prev != nil && prev.Leader == m.self
		for _, id := range m.members {
			lastAck[id] = m.now
			if last, ok := m.lastAck[id]; ok && led {
				lastAck[id] = last
			}
		}
		m.lastAck = lastAck
		// Memgest IDs continue above anything in the config.
		for _, mi := range cfg.Memgests {
			if mi.ID >= m.nextMgID {
				m.nextMgID = mi.ID + 1
			}
		}
	}
	m.install(prev, cfg)
}

// leaveQuarantine ends a quarantine the installed configuration names
// the node in: usually as a role-less spare that serves at once, else
// in its old roles, served once the install's recoveries are in.
func (m *membership) leaveQuarantine() {
	if m.rejoining && isMember(m.cfg, m.self) {
		m.rejoining = false
		m.joinAttempts = 0
	}
}

// handleReconfig runs an operator's change at the leader: each op is a
// delta handed to propose, and only a leave is fenced.
func (m *membership) handleReconfig(from string, msg *proto.Reconfig) {
	req, fence, id := msg.Req, proto.NilNode, proto.MemgestID(0) // a fenced leave answers after this handler returned
	reply := func(st proto.Status, moved uint32, epoch proto.Epoch) {
		r := &proto.ReconfigReply{Req: req, Status: st, Moved: moved, Epoch: epoch}
		if st == proto.StOK {
			r.Memgest = id
		}
		m.send(from, r)
	}
	var d delta
	switch msg.Op {
	case proto.ReconfigJoin:
		d = admit(msg.Node)
	case proto.ReconfigLeave:
		d, fence = leave(msg.Node), msg.Node
	case proto.ReconfigCreate:
		id = m.nextMgID // adopt moves nextMgID past it
		d = createMemgest(id, msg.Scheme)
	case proto.ReconfigDelete:
		d = deleteMemgest(msg.Memgest)
	case proto.ReconfigSetDefault:
		d = setDefault(msg.Memgest)
	default:
		reply(proto.StInvalid, 0, m.cfg.Epoch)
		return
	}
	m.propose(d, fence, reply)
}

// delta edits a copy of the configuration into the one proposed and
// returns StOK, or the refusal (the copy is then discarded). It depends
// on nothing but the configuration, so any node judges it alike.
type delta func(cfg *proto.Config) proto.Status

// replyFunc tells a requester how its change ended: StOK with the slots
// reassigned and the epoch now installed, or the refusal.
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

// createMemgest adds a memgest of scheme sc under id, its redundancy on
// the group's redundancy nodes, and makes it the default if there is
// none.
func createMemgest(id proto.MemgestID, sc proto.Scheme) delta {
	return func(cfg *proto.Config) proto.Status {
		s, d := len(cfg.Coords), len(cfg.Redundant)
		switch {
		case sc.Validate() != nil,
			sc.S != s,                                // every memgest in the group shares the same s
			sc.Kind == proto.SchemeSRS && sc.M > d,   // d bounds the number of parity nodes
			sc.Kind == proto.SchemeRep && sc.R > s+d: // s+d bounds the replication factor
			return proto.StInvalid
		}
		cfg.Memgests = append(cfg.Memgests, proto.MemgestInfo{ID: id, Scheme: sc, Redundant: slices.Clone(cfg.Redundant)})
		if cfg.Default == 0 {
			cfg.Default = id
		}
		return proto.StOK
	}
}

// deleteMemgest removes memgest id cluster-wide; the default passes to
// the first memgest left. Keys stored only in it become unavailable;
// callers are expected to have moved them.
func deleteMemgest(id proto.MemgestID) delta {
	return func(cfg *proto.Config) proto.Status {
		i := slices.IndexFunc(cfg.Memgests, func(mi proto.MemgestInfo) bool { return mi.ID == id })
		if i < 0 {
			return proto.StNoMemgest
		}
		cfg.Memgests = slices.Delete(cfg.Memgests, i, i+1)
		if cfg.Default == id {
			cfg.Default = 0
			if len(cfg.Memgests) > 0 {
				cfg.Default = cfg.Memgests[0].ID
			}
		}
		return proto.StOK
	}
}

// setDefault makes memgest id the one puts without a memgest land in.
func setDefault(id proto.MemgestID) delta {
	return func(cfg *proto.Config) proto.Status {
		if cfg.Memgest(id) == nil {
			return proto.StNoMemgest
		}
		cfg.Default = id
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

// propose is the one way a configuration changes. The requester is
// refused StWrongNode unless the delta's copy names this node leader,
// StRetry while another change is pending, or the delta's own status;
// a delta that changes nothing is answered StOK at the current epoch.
// Otherwise the copy, one epoch up, is announced at once, or — given a
// fence — pushed to that node alone and announced on its ConfigAck. It
// reports whether a change was started.
func (m *membership) propose(d delta, fence proto.NodeID, reply replyFunc) bool {
	next := m.cfg.Clone()
	st := d(next)
	switch {
	case next.Leader != m.self:
		st = proto.StWrongNode
	case m.pending != nil:
		st = proto.StRetry
	}
	if st != proto.StOK || sameConfig(m.cfg, next) {
		reply(st, 0, m.cfg.Epoch)
		return false
	}
	next.Epoch++
	p := &change{cfg: next, fence: fence, moved: configDelta(m.cfg, next), started: m.now, reply: reply}
	if fence == proto.NilNode {
		m.announce(p)
		return true
	}
	m.pending = p
	m.sendConfig(fence, next)
	return true
}

// announce installs a proposed configuration and replicates it to its
// members. Substitutes recover the slots that changed hands through the
// normal takeover path; every other slot keeps its data where it is.
func (m *membership) announce(p *change) {
	m.pending = nil
	m.adopt(p.cfg)
	for _, id := range p.cfg.AllNodes() {
		if id != m.self {
			m.sendConfig(id, p.cfg)
		}
	}
	m.metrics.ShardsMoved.Add(uint64(p.moved))
	p.reply(proto.StOK, p.moved, p.cfg.Epoch)
}

// sendConfig is the one place a configuration goes on the wire.
func (m *membership) sendConfig(to proto.NodeID, cfg *proto.Config) {
	m.send(NodeAddr(to), &proto.ConfigPush{Config: cfg.Clone()})
}

// repush sends a configuration again: a lost ConfigPush is repaired each
// heartbeat, and given up on when FailAfter evicts a silent receiver.
func (m *membership) repush(to proto.NodeID, cfg *proto.Config) {
	m.metrics.ConfigRepushes.Inc()
	m.sendConfig(to, cfg)
}

// handleConfigAck releases a pending fence once the departing node
// acknowledged it. Any other ConfigAck is informational: what a member
// has installed is read off its heartbeat acks.
func (m *membership) handleConfigAck(from string, msg *proto.ConfigAck) {
	if p := m.pending; p != nil && from == NodeAddr(p.fence) && msg.Epoch == p.cfg.Epoch {
		m.announce(p)
	}
}

// abandonPending voids a pending change on an install: the configuration
// it was computed against is gone (leadership moved, or a competing
// leader's push won the tie-break). Its requester retries.
func (m *membership) abandonPending() {
	if p := m.pending; p != nil {
		m.pending = nil
		p.reply(proto.StRetry, 0, m.cfg.Epoch)
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

// joinTick re-announces a quarantined node: first to the leader of its
// boot configuration, then round-robin over every other known peer
// (the boot leader may itself be dead). Join is idempotent on the
// receiving side, so re-sending until a ConfigPush lands is safe.
func (m *membership) joinTick() {
	peers := others(m.cfg, m.self)
	if len(peers) == 0 {
		return
	}
	target := m.cfg.Leader
	if target == m.self || m.joinAttempts > 0 {
		target = peers[m.joinAttempts%len(peers)]
	}
	m.joinAttempts++
	m.send(NodeAddr(target), &proto.Join{Node: m.self, Epoch: m.cfg.Epoch, Durable: m.durableJoin})
}

// handleJoin processes a restarted node's announcement. A non-leader
// sends the joiner its configuration (and so its leader). The leader
// re-admits it in one change: a node that recovered committed state
// keeps its roles and delta-syncs them; an amnesiac one hands them to a
// spare and becomes one. Join has no reply — a refused proposal is
// retried by the joiner's next tick, and a joiner already placed as it
// asks missed the push that placed it, so it is sent again.
func (m *membership) handleJoin(from string, msg *proto.Join) {
	if msg.Node == m.self {
		return
	}
	if !m.IsLeader() {
		m.sendConfig(msg.Node, m.cfg)
		return
	}
	if _, member := m.lastAck[msg.Node]; member {
		m.lastAck[msg.Node] = m.now
	}
	d := readmit(msg.Node)
	if msg.Durable {
		d = admit(msg.Node)
	}
	was := m.cfg.Epoch
	m.propose(d, proto.NilNode, func(st proto.Status, _ uint32, epoch proto.Epoch) {
		if st == proto.StOK && epoch == was {
			m.sendConfig(msg.Node, m.cfg)
		}
	})
}
