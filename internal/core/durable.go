package core

import (
	"sort"

	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
)

// This file wires the durable engine (internal/replog.Durable) into
// the node state machine. Every mutation of a metadata table has a
// persist hook; the hooks only buffer (group commit), and the batch's
// outputs reach the hosting runner only through Node.Flush, which syncs
// at the event-batch boundary before it hands them over. A sync is
// owed by an acknowledgement, not by dirt: the batch fsyncs when one of
// its outputs is an ack-class message (proto.MsgType.IsAck — what tells
// another party that something happened here) or when it ran a tick.
// Requests, replication fan-out, commit notices and purges promise
// their receiver nothing about this node's disk, so they leave without
// waiting for it and the records behind them ride the next ack or
// tick. Under fsync policy "always" an acknowledged write is therefore
// still a durable write — and that is all the policy ever promised.
//
// Persist errors are sticky: after the first failed append or sync
// the node must crash-stop (fsyncgate semantics — a node that cannot
// promise durability must not keep acknowledging): Flush then hands no
// outputs over, and the runner halts the node.

// SetDurable attaches a durable store to a freshly constructed node
// (empty data directory). For a node restarting over an existing data
// directory use NewRecovered instead.
func (n *Node) SetDurable(d *replog.Durable) {
	n.durable = d
}

// NewRecovered creates a node restarting after a crash WITH durable
// state recovered from its data directory. Like NewRejoining it boots
// quarantined — its roles in the current configuration are decided by
// the leader — but its Join advertises the durable state, so a leader
// re-admits it into the roles it held and the node resyncs the delta
// from the group instead of refetching everything as an empty spare.
func NewRecovered(id proto.NodeID, cfg *proto.Config, opts Options, d *replog.Durable) *Node {
	n := NewRejoining(id, cfg, opts)
	n.durable = d
	n.durStash = d.Recovered()
	return n
}

// HasDurable reports whether a durable store is attached.
func (n *Node) HasDurable() bool { return n.durable != nil }

// joinDurable reports whether the node's Join should advertise
// recovered durable state (it holds committed entries worth keeping
// its roles for).
func (n *Node) joinDurable() bool {
	for _, rs := range n.durStash {
		if len(rs.Entries) > 0 {
			return true
		}
	}
	return false
}

// CloseDurable flushes and closes the durable store (clean shutdown;
// a crash simply skips this).
func (n *Node) CloseDurable() error {
	if n.durable == nil {
		return nil
	}
	d := n.durable
	n.durable = nil
	return d.Close()
}

// persistErr records the first durable-layer error; every later hook
// and Flush observe it, so the failure surfaces at the next batch
// boundary no matter which mutation hit it.
func (n *Node) persistErr(err error) {
	if err != nil && n.durableErr == nil {
		n.durableErr = err
	}
}

func durKey(mgID proto.MemgestID, shard uint32) replog.ShardKey {
	return replog.ShardKey{Memgest: mgID, Shard: shard}
}

// durValue extracts what the durable layer should persist as the
// entry's value: Rep memgests persist the full copy; SRS memgests
// persist metadata only (block data is re-decoded from the parity
// group on recovery, per the paper's recovery protocol).
func durValue(st *mgState, e *store.Entry) ([]byte, bool) {
	if st.info.Scheme.Kind == proto.SchemeRep {
		if b, _ := e.Bytes(); b != nil {
			return b, true
		}
	}
	return nil, false
}

// logged names an entry persistAppend has recorded: its record is
// behind the sync of the Flush its acknowledgement leaves through (on a
// volatile node the table is all there is).
type logged struct {
	st    *mgState
	shard uint32
	seq   proto.Seq
}

// persistAppend records a write-ahead append (coordinator doWrite,
// replica RepAppend, parity ParityUpdate).
func (n *Node) persistAppend(st *mgState, shard uint32, e *store.Entry) logged {
	if n.durable != nil && n.durableErr == nil {
		value, hasValue := durValue(st, e)
		n.persistErr(n.durable.Append(durKey(st.info.ID, shard), e.Seq, &e.Rec, value, hasValue))
	}
	return logged{st: st, shard: shard, seq: e.Seq}
}

// persistCommit records an entry's commit.
func (n *Node) persistCommit(st *mgState, shard uint32, e *store.Entry) {
	if n.durable == nil || n.durableErr != nil {
		return
	}
	value, hasValue := durValue(st, e)
	n.persistErr(n.durable.Commit(durKey(st.info.ID, shard), e.Seq, &e.Rec, value, hasValue))
}

// persistInstall records an entry learned through recovery (already
// committed group-wide).
func (n *Node) persistInstall(st *mgState, shard uint32, e *store.Entry) {
	if n.durable == nil || n.durableErr != nil {
		return
	}
	value, hasValue := durValue(st, e)
	n.persistErr(n.durable.Install(durKey(st.info.ID, shard), e.Seq, &e.Rec, value, hasValue))
}

// persistPurge records the removal of one version.
func (n *Node) persistPurge(mgID proto.MemgestID, shard uint32, key string, ver proto.Version, seq proto.Seq) {
	if n.durable == nil || n.durableErr != nil {
		return
	}
	n.persistErr(n.durable.Purge(durKey(mgID, shard), seq, key, ver))
}

// persistReset voids the durable state of a shard whose role this
// node lost — replaying it in a later life would resurrect state that
// now belongs to another node.
func (n *Node) persistReset(mgID proto.MemgestID, shard uint32) {
	if n.durable == nil || n.durableErr != nil {
		return
	}
	n.persistErr(n.durable.Reset(durKey(mgID, shard)))
}

// takeStash consumes the recovered durable state of one shard, if any.
// What a damaged store recovered is not installed: the log lost a
// suffix, so what survives may be an older state than Bitcask's —
// versions purged since are back, and the purges are gone — and the
// full transfer a damaged store owes (Since == 0) only adds entries,
// it cannot take a resurrected one away. The shard is voided on disk
// and rebuilt from the group like a volatile node's; only the highest
// sequence survives, to keep the allocator clear of the old life.
func (n *Node) takeStash(mgID proto.MemgestID, shard uint32) *replog.RecoveredShard {
	sk := durKey(mgID, shard)
	rs := n.durStash[sk]
	if rs == nil {
		return nil
	}
	delete(n.durStash, sk)
	if n.durable.Damaged() {
		n.persistReset(mgID, shard)
		return &replog.RecoveredShard{MaxSeq: rs.MaxSeq}
	}
	return rs
}

// installStash seeds a role just gained from what an earlier life of
// this node left on disk for its shard, and returns the delta floor
// for the group sync. All stash entries are committed and Rep entries
// carry their persisted values; a coordinator's SRS entries re-reserve
// their heap extents (block data itself is re-decoded in the
// background).
func (n *Node) installStash(st *mgState, r role) proto.Seq {
	rs := n.takeStash(r.mg, r.shard)
	if rs == nil {
		return 0
	}
	table, cs := st.rmeta[r.shard], st.coord[r.shard]
	if r.kind == roleCoordinator {
		table = cs.meta
		// Sequences allocated in the new life must never collide with the
		// old life's (a replica matching an old seq to a new entry would
		// corrupt commit resolution).
		cs.tracker.Advance(rs.MaxSeq)
	}
	for i := range rs.Entries {
		re := &rs.Entries[i]
		e := &store.Entry{Rec: re.Rec, Seq: re.Seq}
		if r.kind == roleCoordinator && st.layout != nil && cs.heap.Reserve(e.Extent()) != nil {
			// Conflicting extent (only possible after disk damage,
			// which already forces Since == 0): let the group sync
			// re-install this entry.
			continue
		}
		if e = table.Put(e); re.HasValue {
			table.Hold(e, re.Value)
		}
	}
	return rs.Since
}

// resetUnconsumedStash voids the durable shards gainRole left in the
// stash (the leader re-admitted us as a spare, or a role moved while we
// were down). Runs once, after the re-admitting configuration installs.
func (n *Node) resetUnconsumedStash() {
	stash := n.durStash
	n.durStash = nil
	if n.durable == nil || len(stash) == 0 {
		return
	}
	sks := make([]replog.ShardKey, 0, len(stash))
	for sk := range stash {
		sks = append(sks, sk)
	}
	sort.Slice(sks, func(i, j int) bool { return sks[i].Less(sks[j]) })
	for _, sk := range sks {
		n.persistErr(n.durable.Reset(sk))
	}
}
