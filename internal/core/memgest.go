package core

import (
	"fmt"
	"slices"
	"time"

	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/srs"
	"ring/internal/store"
)

// mgState is everything one node holds for one memgest, across all the
// roles it plays in it.
type mgState struct {
	info   proto.MemgestInfo
	layout *srs.Layout // nil for Rep memgests
	// met caches this memgest's op counters so the write/read hot path
	// bumps them through one pointer, never a map lookup.
	met *MemgestMetrics

	// coord holds coordinator-side state for each shard this node
	// coordinates (normally one; several after spare exhaustion or in
	// rotated memgest-group deployments).
	coord map[uint32]*coordShard

	// parityIdx is this node's index among the memgest's parity nodes
	// (SRS), or -1.
	parityIdx int
	// parity is the parity-block region (SRS parity role).
	parity *store.ParityRegion
	// rmeta holds this node's replica of metadata hashtables, per
	// shard, for its replica (Rep) or parity (SRS) roles. Entries of
	// replicated memgests carry values; parity-side entries are
	// metadata only (the parity bytes live in the parity region).
	rmeta map[uint32]*store.MetaTable
	// rseq maps log sequences to entry keys on the redundancy side, so
	// RepCommit (which carries only a seq) can flip committed flags.
	rseq map[uint32]map[proto.Seq]store.EntryKey
}

// coordShard is the coordinator-side state of (memgest, shard).
type coordShard struct {
	shard   uint32
	meta    *store.MetaTable
	heap    *store.BlockHeap // SRS only
	tracker *replog.Tracker
	// pending maps in-flight sequences to their commit actions.
	pending map[proto.Seq]pendingCommit
	// redundant are the nodes every write of the shard goes to: the
	// memgest's parity nodes, or the shard's replica set. It is computed
	// when a configuration installs, so a put does not.
	redundant []proto.NodeID
}

// pendingCommit describes what to do when an in-flight entry reaches
// its quorum.
type pendingCommit struct {
	key     string
	version proto.Version
	// start is the node-local time the write arrived, for the commit
	// latency histograms.
	start time.Duration
	// replyTo/req/kind describe the client reply owed at commit time;
	// kind 0 means no reply (internal write, e.g. recovery re-insert).
	replyTo string
	req     proto.ReqID
	kind    replyKind
}

type replyKind uint8

const (
	replyNone replyKind = iota
	replyPut
	replyDelete
	replyMove
)

// traceOp maps a reply kind to its trace classification; internal
// writes (replyNone) are not traced.
func (k replyKind) traceOp() metrics.TraceOp {
	switch k {
	case replyPut:
		return metrics.TracePut
	case replyDelete:
		return metrics.TraceDelete
	case replyMove:
		return metrics.TraceMove
	}
	return metrics.TraceNone
}

// replicaSet returns the redundancy nodes of a replicated memgest for
// a shard: the first r-1 candidates from the memgest's redundant nodes
// followed by the other coordinators in rotation. This realizes the
// paper's bound r <= s+d.
func replicaSet(cfg *proto.Config, info *proto.MemgestInfo, shard uint32) []proto.NodeID {
	need := info.Scheme.R - 1
	if need <= 0 {
		return nil
	}
	var cands []proto.NodeID
	cands = append(cands, info.Redundant...)
	s := len(cfg.Coords)
	for i := 1; i < s; i++ {
		cands = append(cands, cfg.Coords[(int(shard)+i)%s])
	}
	self := cfg.Coords[shard]
	out := make([]proto.NodeID, 0, need)
	for _, c := range cands {
		if c == self {
			continue
		}
		out = append(out, c)
		if len(out) == need {
			break
		}
	}
	return out
}

// redundancyOf returns the nodes that hold the redundancy of one shard
// of a memgest: its parity nodes, or the shard's replica set.
func redundancyOf(cfg *proto.Config, info *proto.MemgestInfo, shard uint32) []proto.NodeID {
	if info.Scheme.Kind == proto.SchemeSRS {
		return parityNodes(info)
	}
	return replicaSet(cfg, info, shard)
}

// parityNodes returns the parity nodes of an SRS memgest.
func parityNodes(info *proto.MemgestInfo) []proto.NodeID {
	return info.Redundant[:info.Scheme.M]
}

// quorumAcks returns the number of remote acks a coordinator needs
// before committing: all m parity nodes for SRS; a majority of the r
// replicas (counting itself) for Rep, or all r-1 replicas under
// synchronous replication.
func (n *Node) quorumAcks(sc proto.Scheme) int {
	if sc.Kind == proto.SchemeSRS {
		return sc.M
	}
	if n.opts.SyncReplication {
		return sc.R - 1
	}
	// majority of r including self => floor(r/2) remote acks.
	return sc.R / 2
}

// newMgState builds the state for a memgest this node participates in.
func (n *Node) newMgState(info proto.MemgestInfo) *mgState {
	st := &mgState{
		info:      info,
		parityIdx: -1,
		met:       n.Metrics.mgMetrics(info.ID),
		coord:     make(map[uint32]*coordShard),
		rmeta:     make(map[uint32]*store.MetaTable),
		rseq:      make(map[uint32]map[proto.Seq]store.EntryKey),
	}
	if info.Scheme.Kind == proto.SchemeSRS {
		st.layout = srs.MustLayout(info.Scheme.K, info.Scheme.M, info.Scheme.S)
	}
	return st
}

// newCoordShard builds coordinator state for one shard of a memgest.
func (n *Node) newCoordShard(st *mgState, shard uint32) *coordShard {
	cs := &coordShard{
		shard:     shard,
		meta:      n.indexFor(shard).NewTable(),
		tracker:   replog.NewTracker(),
		pending:   make(map[proto.Seq]pendingCommit),
		redundant: redundancyOf(n.cfg, &st.info, shard),
	}
	if st.layout != nil {
		lo, hi := st.layout.NodeBlocks(int(shard))
		cs.heap = store.NewBlockHeap(lo, hi-lo, n.opts.BlockSize)
		// This node multiplies the deltas of this shard's puts.
		st.layout.WarmParityDelta(int(shard))
	}
	st.coord[shard] = cs
	return cs
}

// table returns the metadata table behind a role this node holds.
func (st *mgState) table(r role) *store.MetaTable {
	if r.kind == roleCoordinator {
		return st.coord[r.shard].meta
	}
	return st.rmeta[r.shard]
}

// mgFor returns the memgest state, or nil when unknown.
func (n *Node) mgFor(id proto.MemgestID) *mgState {
	return n.mg[id]
}

// role is one responsibility a configuration gives a node: coordinator,
// replica or parity node of one shard of one memgest.
type role struct {
	mg    proto.MemgestID
	shard uint32
	kind  recoveredRole
}

// rolesOf lists the roles cfg gives node id: memgest by memgest in
// configuration order, a memgest's coordinator roles before its
// redundancy roles, each by shard. A parity node replicates the
// metadata of every shard of its memgest; a spare, a redundancy node
// outside a memgest's first m, and a node the configuration does not
// name hold nothing.
func rolesOf(cfg *proto.Config, id proto.NodeID) []role {
	var out []role
	for i := range cfg.Memgests {
		mi := &cfg.Memgests[i]
		for shard, c := range cfg.Coords {
			if c == id {
				out = append(out, role{mi.ID, uint32(shard), roleCoordinator})
			}
		}
		if mi.Scheme.Kind == proto.SchemeSRS {
			if slices.Contains(parityNodes(mi), id) {
				for shard := 0; shard < mi.Scheme.S; shard++ {
					out = append(out, role{mi.ID, uint32(shard), roleParity})
				}
			}
			continue
		}
		for shard := range cfg.Coords {
			if slices.Contains(replicaSet(cfg, mi, uint32(shard)), id) {
				out = append(out, role{mi.ID, uint32(shard), roleReplica})
			}
		}
	}
	return out
}

// installConfig is membership's install: it applies cfg, which
// replaced prev. What this node holds is what prev gave it — nothing
// when there was none (initial cluster construction), and nothing on a
// quarantined node, whose boot configuration names roles whose state
// the crash took. Every role the new configuration adds to that goes through
// gainRole, every role it takes away through loseRole, and nothing
// else creates or drops role state: a table's existence says nothing
// about whose shard it is.
func (n *Node) installConfig(prev, cfg *proto.Config) {
	var held []role
	if prev != nil && !n.rejoining {
		held = rolesOf(prev, n.id)
	}
	roles := rolesOf(cfg, n.id)
	for _, r := range held {
		if !slices.Contains(roles, r) {
			n.loseRole(r)
		}
	}
	for id := range n.mg {
		if cfg.Memgest(id) == nil {
			delete(n.mg, id)
			delete(n.Metrics.mg, id)
		}
	}
	for _, mi := range cfg.Memgests {
		if st := n.mg[mi.ID]; st != nil {
			st.info = mi
			for shard, cs := range st.coord {
				cs.redundant = redundancyOf(cfg, &st.info, shard)
			}
		} else {
			n.mg[mi.ID] = n.newMgState(mi)
		}
	}
	for _, r := range roles {
		if !slices.Contains(held, r) {
			// A memgest this very configuration created has no earlier
			// holder to recover from, nor has anything at construction.
			n.gainRole(r, prev == nil || prev.Memgest(r.mg) == nil)
		}
	}
	n.leaveQuarantine()
	// Durable shards no gained role claimed are voided: either the
	// leader re-admitted us into different roles, or a role moved while
	// we were down. Keeping them would resurrect stale state next life.
	if n.durStash != nil && !n.rejoining {
		n.resetUnconsumedStash()
	}
	// A pending change and the open move windows were planned against
	// the previous configuration: the change is void, the windows abort
	// and relaunch.
	n.abandonPending()
	n.replanMoves()
}

// gainRole creates the state of a role the configuration just gave
// this node: the table, and the heap or parity region beside it. Unless
// the role is fresh it had a holder before, so it is recovered before
// the node serves (Section 6.4): what an earlier life of this node left
// on disk goes in first, a metadata fetch from the group brings the
// rest, and a parity node rebuilds its blocks.
func (n *Node) gainRole(r role, fresh bool) {
	st := n.mg[r.mg]
	switch r.kind {
	case roleCoordinator:
		n.newCoordShard(st, r.shard)
	case roleParity:
		if st.parity == nil { // one region behind the memgest's s parity roles
			st.parityIdx = slices.Index(parityNodes(&st.info), n.id)
			st.parity = store.NewParityRegion(st.layout.Stripes(), n.opts.BlockSize)
			for t := 0; !fresh && t < st.layout.Stripes(); t++ {
				n.wants.open(stripeWant(r.mg, t))
			}
		}
		fallthrough
	case roleReplica:
		st.rmeta[r.shard] = n.indexFor(r.shard).NewTable()
	}
	if !fresh {
		n.wantMetadata(r, n.installStash(st, r))
	}
}

// loseRole drops everything held for a role the configuration took
// away: the memory, the bookkeeping of writes in flight (their clients
// retry against the new holder), and the durable shard, which replayed
// in a later life would resurrect state that now belongs elsewhere.
func (n *Node) loseRole(r role) {
	n.forgetWants(r)
	st := n.mg[r.mg]
	switch r.kind {
	case roleCoordinator:
		cs := st.coord[r.shard]
		dropTable(st, cs.meta)
		if cs.heap != nil {
			cs.heap.Drop()
		}
		delete(st.coord, r.shard)
	case roleParity:
		if st.parity != nil {
			st.parity.Drop()
			st.parity, st.parityIdx = nil, -1
		}
		fallthrough
	case roleReplica:
		dropTable(st, st.rmeta[r.shard])
		delete(st.rmeta, r.shard)
		delete(st.rseq, r.shard)
	}
	n.persistReset(r.mg, r.shard)
}

// dropTable gives the memory of a lost role's table back, and keeps
// what the table had counted.
func dropTable(st *mgState, t *store.MetaTable) {
	moves := t.ValueMoves()
	st.met.ValueSlotsRelocated.Add(moves.SlotsRelocated)
	st.met.ValueChunksReleased.Add(moves.ChunksReleased)
	t.Drop()
}

// ownedShards returns the shards this node currently coordinates.
func (n *Node) ownedShards() []uint32 {
	var out []uint32
	for i, c := range n.cfg.Coords {
		if c == n.id {
			out = append(out, uint32(i))
		}
	}
	return out
}

// String renders the node's role summary for debugging.
func (n *Node) String() string {
	return fmt.Sprintf("node %d (epoch %d, leader=%v, serving=%v, shards=%v)",
		n.id, n.cfg.Epoch, n.IsLeader(), n.Serving(), n.ownedShards())
}
