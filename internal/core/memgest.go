package core

import (
	"fmt"
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
	pending map[proto.Seq]*pendingCommit
	// blockOK marks SRS logical blocks whose data is valid; false for
	// blocks still awaiting recovery after a failover.
	blockOK map[uint32]bool
	// blockWaiters queues requests waiting for a block recovery, and
	// blockFetching marks blocks with a recovery in flight.
	blockWaiters  map[uint32][]blockWaiter
	blockFetching map[uint32]bool
	// valueWaiters queues requests waiting for a Rep value fetch, and
	// valueFetching marks fetches in flight.
	valueWaiters  map[store.EntryKey][]blockWaiter
	valueFetching map[store.EntryKey]bool
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
	}
	if info.Scheme.Kind == proto.SchemeSRS {
		st.layout = srs.MustLayout(info.Scheme.K, info.Scheme.M, info.Scheme.S)
	}
	return st
}

// newCoordShard builds coordinator state for one shard of a memgest.
// fresh indicates the memgest is newly created (all blocks valid); a
// non-fresh creation (failover takeover) starts with every block
// invalid pending recovery.
func (n *Node) newCoordShard(st *mgState, shard uint32, fresh bool) *coordShard {
	cs := &coordShard{
		shard:        shard,
		meta:         newMetaTable(),
		tracker:      replog.NewTracker(),
		pending:      make(map[proto.Seq]*pendingCommit),
		blockOK:      make(map[uint32]bool),
		blockWaiters: make(map[uint32][]blockWaiter),

		blockFetching: make(map[uint32]bool),
		valueWaiters:  make(map[store.EntryKey][]blockWaiter),
		valueFetching: make(map[store.EntryKey]bool),
	}
	if st.layout != nil {
		lo, hi := st.layout.NodeBlocks(int(shard))
		cs.heap = store.NewBlockHeap(lo, hi-lo, n.opts.BlockSize)
		// This node multiplies the deltas of this shard's puts.
		st.layout.WarmParityDelta(int(shard))
		for b := lo; b < hi; b++ {
			cs.blockOK[uint32(b)] = fresh
		}
	}
	st.coord[shard] = cs
	return cs
}

// drop gives back the memory behind a shard this node no longer
// coordinates.
func (cs *coordShard) drop() {
	cs.meta.Drop()
	if cs.heap != nil {
		cs.heap.Drop()
	}
}

// drop gives back the memory behind everything the node held for a
// memgest that no longer exists.
func (st *mgState) drop() {
	for _, cs := range st.coord {
		cs.drop()
	}
	for _, rt := range st.rmeta {
		rt.Drop()
	}
	if st.parity != nil {
		st.parity.Drop()
	}
}

// mgFor returns the memgest state, or nil when unknown.
func (n *Node) mgFor(id proto.MemgestID) *mgState {
	return n.mg[id]
}

// installConfig applies a configuration, creating role state for new
// assignments and scheduling recovery for roles taken over from failed
// nodes. bootstrap suppresses recovery (initial cluster construction).
func (n *Node) installConfig(cfg *proto.Config, bootstrap bool) {
	prev := n.cfg
	n.cfg = cfg
	n.prev = prev
	if cfg.Leader == n.id {
		// Liveness is tracked for exactly the members. A node that left
		// is forgotten; one just learned of, and every one at the start
		// of a term, is not instantly declared dead on what an earlier
		// term or membership last heard.
		led := prev != nil && prev.Leader == n.id
		lastAck := make(map[proto.NodeID]time.Duration)
		for _, id := range cfg.AllNodes() {
			lastAck[id] = n.now
			if last, ok := n.lastAck[id]; ok && led {
				lastAck[id] = last
			}
		}
		n.lastAck = lastAck
		// Memgest IDs continue above anything in the config.
		for _, mi := range cfg.Memgests {
			if mi.ID >= n.nextMgID {
				n.nextMgID = mi.ID + 1
			}
		}
	}

	// Drop state (and counters) for memgests that no longer exist. The
	// durable shards are voided too: replaying them in a later life
	// would resurrect a deleted memgest.
	for id := range n.mg {
		if cfg.Memgest(id) == nil {
			n.resetMgDurable(n.mg[id])
			n.mg[id].drop()
			delete(n.mg, id)
			delete(n.Metrics.mg, id)
		}
	}

	needsRecovery := false
	for _, mi := range cfg.Memgests {
		existedBefore := prev != nil && prev.Memgest(mi.ID) != nil
		st := n.mg[mi.ID]
		if st == nil {
			st = n.newMgState(mi)
			n.mg[mi.ID] = st
		} else {
			st.info = mi
		}

		// Coordinator roles.
		for shard := uint32(0); int(shard) < len(cfg.Coords); shard++ {
			if cfg.Coords[shard] != n.id {
				// Lost the role (shouldn't happen in this design except
				// via memgest deletion); drop any stale state, durable
				// state included.
				if cs, ok := st.coord[shard]; ok {
					cs.drop()
					delete(st.coord, shard)
					n.persistReset(mi.ID, shard)
				}
				continue
			}
			if _, ok := st.coord[shard]; ok {
				continue
			}
			takeover := existedBefore && !bootstrap
			cs := n.newCoordShard(st, shard, !takeover)
			if takeover {
				needsRecovery = true
				since := n.installCoordStash(st, cs)
				n.startMetaRecovery(mi.ID, shard, roleCoordinator, since)
			}
		}

		// Redundancy roles.
		switch mi.Scheme.Kind {
		case proto.SchemeSRS:
			pidx := -1
			for i, p := range parityNodes(&mi) {
				if p == n.id {
					pidx = i
					break
				}
			}
			st.parityIdx = pidx
			if pidx >= 0 && st.parity == nil {
				st.parity = store.NewParityRegion(st.layout.Stripes(), n.opts.BlockSize)
				for shard := 0; shard < mi.Scheme.S; shard++ {
					// A parity node's tables hold no values: one made on
					// demand before this configuration has nothing to drop.
					st.rmeta[uint32(shard)] = newMetaTable()
				}
				if existedBefore && !bootstrap {
					needsRecovery = true
					for shard := 0; shard < mi.Scheme.S; shard++ {
						since := n.installRedundantStash(st, uint32(shard))
						n.startMetaRecovery(mi.ID, uint32(shard), roleParity, since)
					}
					n.scheduleParityRebuild(st)
				}
			}
		case proto.SchemeRep:
			for shard := uint32(0); int(shard) < len(cfg.Coords); shard++ {
				isReplica := false
				for _, r := range replicaSet(cfg, &mi, shard) {
					if r == n.id {
						isReplica = true
						break
					}
				}
				if !isReplica {
					continue
				}
				if _, ok := st.rmeta[shard]; ok {
					continue
				}
				st.rmeta[shard] = newMetaTable()
				if existedBefore && !bootstrap {
					needsRecovery = true
					since := n.installRedundantStash(st, shard)
					n.startMetaRecovery(mi.ID, shard, roleReplica, since)
				}
			}
		}
	}
	if needsRecovery {
		n.serving = false
	}
	if n.rejoining {
		for _, id := range cfg.AllNodes() {
			if id == n.id {
				// The leader re-admitted us: leave quarantine. Usually we
				// come back as a role-less spare and serve immediately;
				// if no spare was free we kept our old roles and the
				// takeover recovery scheduled above re-fetches their
				// state (serving stays false until it completes).
				n.rejoining = false
				n.joinAttempts = 0
				n.serving = !needsRecovery
				break
			}
		}
	}
	// Durable shards no installed role claimed are voided: either the
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
		n.id, n.cfg.Epoch, n.IsLeader(), n.serving, n.ownedShards())
}
