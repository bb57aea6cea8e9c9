package core

import (
	"ring/internal/proto"
	"ring/internal/store"
)

// rmetaFor returns the memgest state and metadata table behind a
// replica or parity role of this node, or nils. Only gainRole makes
// the table, so replication traffic for a role the installed
// configuration does not give this node — a spare the coordinator
// learned of first, a node that left — is dropped, unstored and
// unacknowledged: a node acking appends into a table it never
// recovered would silently weaken quorums.
func (n *Node) rmetaFor(mgID proto.MemgestID, shard uint32) (*mgState, *store.MetaTable) {
	st := n.mg[mgID]
	if st == nil || st.rmeta[shard] == nil {
		return nil, nil
	}
	return st, st.rmeta[shard]
}

// rseqFor returns the seq -> entry-key index of a shard, used to flip
// committed flags when RepCommit arrives (which carries only the seq).
func (st *mgState) rseqFor(shard uint32) map[proto.Seq]store.EntryKey {
	m, ok := st.rseq[shard]
	if !ok {
		m = make(map[proto.Seq]store.EntryKey)
		st.rseq[shard] = m
	}
	return m
}

// ackAppend acknowledges a replicated entry to its coordinator: the
// only function that builds a RepAck or a ParityAck, and only from what
// persistAppend returned — a redundancy node acks what it has logged.
func (n *Node) ackAppend(to string, l logged) {
	if l.st.info.Scheme.Kind == proto.SchemeSRS {
		n.send(to, proto.New(proto.ParityAck{Memgest: l.st.info.ID, Shard: l.shard, Seq: l.seq}))
	} else {
		n.send(to, proto.New(proto.RepAck{Memgest: l.st.info.ID, Shard: l.shard, Seq: l.seq}))
	}
}

// handleRepAppend applies a replicated-log entry on a replica of a
// Rep memgest: store the (still uncommitted) metadata record and the
// value, then acknowledge.
func (n *Node) handleRepAppend(from string, m *proto.RepAppend) {
	st, rt := n.rmetaFor(m.Memgest, m.Shard)
	if rt == nil || len(m.Value) != int(m.Rec.Length) {
		return // a value that is not the length its record says is dropped unacked too
	}
	n.persistReplaced(st, m.Shard, rt, &m.Rec, m.Seq)
	// Retention site: the replica keeps the value past this handler, and
	// m.Value is a view into a packet the runner recycles — its one copy.
	// So is m.Rec.Key: what outlives the handler names the table's key.
	e := rt.Put(&store.Entry{Rec: m.Rec, Seq: m.Seq})
	rt.Hold(e, m.Value)
	st.rseqFor(m.Shard)[m.Seq] = store.EntryKey{Key: rt.Key(e), Version: e.Version}
	n.ackAppend(from, n.persistAppend(st, m.Shard, e))
}

// handleParityUpdate applies a coefficient-multiplied delta to this
// parity node's region and installs the metadata record in its replica
// of the shard's metadata hashtable.
func (n *Node) handleParityUpdate(from string, m *proto.ParityUpdate) {
	st, rt := n.rmetaFor(m.Memgest, m.Shard)
	if rt == nil || st.parity == nil {
		return
	}
	if len(m.Delta) > 0 {
		st.parity.ApplyDelta(int(m.StripeOff), int(m.Off), m.Delta)
		n.Stats.BytesParityXor += uint64(len(m.Delta))
	}
	n.persistReplaced(st, m.Shard, rt, &m.Rec, m.Seq)
	e := rt.Put(&store.Entry{Rec: m.Rec, Seq: m.Seq})
	st.rseqFor(m.Shard)[m.Seq] = store.EntryKey{Key: rt.Key(e), Version: e.Version}
	n.ackAppend(from, n.persistAppend(st, m.Shard, e))
}

// handleRepCommit flips the committed flag on the redundancy copy of a
// log entry.
func (n *Node) handleRepCommit(_ string, m *proto.RepCommit) {
	st, rt := n.rmetaFor(m.Memgest, m.Shard)
	if rt == nil {
		return
	}
	seqIdx := st.rseqFor(m.Shard)
	ek, ok := seqIdx[m.Seq]
	if !ok {
		return
	}
	delete(seqIdx, m.Seq)
	if e := rt.Get(ek.Key, ek.Version); e != nil {
		e.Commit()
		n.persistCommit(st, m.Shard, e)
	}
}

// handlePurge removes a superseded version from the redundancy copy.
// Parity bytes are left in place: the freed extent keeps its contents
// until reused, and reuse deltas are computed against those contents,
// so the stripe invariant holds throughout.
func (n *Node) handlePurge(_ string, m *proto.Purge) {
	st, rt := n.rmetaFor(m.Memgest, m.Shard)
	if rt == nil {
		return
	}
	var seq proto.Seq
	if e, ok := rt.Delete(m.Key, m.Version); ok {
		delete(st.rseqFor(m.Shard), e.Seq)
		seq = e.Seq
	}
	// Persist even when the in-memory copy is already gone: the durable
	// store may still hold the record from a previous life.
	n.persistPurge(m.Memgest, m.Shard, m.Key, m.Version, seq)
}

// handleMetaFetch serves a node recovering the metadata hashtable of
// one memgest shard. Coordinators answer from their authoritative
// table; redundancy nodes answer from their replica.
func (n *Node) handleMetaFetch(from string, m *proto.MetaFetch) {
	st := n.mgFor(m.Memgest)
	if st == nil {
		n.send(from, &proto.MetaFetchReply{Req: m.Req, Status: proto.StNoMemgest, Memgest: m.Memgest, Shard: m.Shard})
		return
	}
	var recs []proto.MetaRecord
	var seq proto.Seq
	if cs := st.coord[m.Shard]; cs != nil {
		recs = cs.meta.RecordsSince(m.Since)
		seq = cs.meta.MaxSeq()
	} else if rt, ok := st.rmeta[m.Shard]; ok {
		recs = rt.RecordsSince(m.Since)
		seq = rt.MaxSeq()
	} else {
		n.send(from, &proto.MetaFetchReply{Req: m.Req, Status: proto.StNotFound, Memgest: m.Memgest, Shard: m.Shard})
		return
	}
	n.send(from, &proto.MetaFetchReply{
		Req: m.Req, Status: proto.StOK, Memgest: m.Memgest, Shard: m.Shard, Seq: seq, Recs: recs,
	})
}

// handleFetch serves the bytes at one place of a memgest, under the one
// rule that a node does not serve what it has an open want for: a Rep
// value from this node's copy of the shard, coordinator's or replica's
// (Rep recovery: "it will request a copy of the requested data from any
// available replica"); an SRS block from the heap of the coordinator
// that owns it; and on a parity node the same block decoded from its
// stripe, provided the node's own parity block of that stripe is whole.
func (n *Node) handleFetch(from string, m *proto.Fetch) {
	refuse := func(s proto.Status) { n.send(from, &proto.FetchReply{Req: m.Req, Status: s}) }
	st := n.mgFor(m.Memgest)
	switch {
	case st == nil || st.layout != nil && int(m.Block) >= st.layout.L:
		refuse(proto.StNoMemgest)
	case st.layout == nil:
		r := role{m.Memgest, m.Shard, roleReplica}
		if st.coord[m.Shard] != nil {
			r.kind = roleCoordinator
		}
		var e *store.Meta
		if t := st.table(r); t != nil && !n.lacks(valueWant(r, m.Key, m.Version)) {
			e = t.Get(m.Key, m.Version)
		}
		if e == nil || !e.Held() {
			refuse(proto.StNotFound)
			return
		}
		b, _ := e.Bytes()
		value := copyOut(b)
		n.sendScratch(from, &proto.FetchReply{Req: m.Req, Status: proto.StOK, Data: value}, value)
	default:
		shard, stripe := uint32(st.layout.DataNodeOf(int(m.Block))), st.layout.StripeOffset(int(m.Block))
		if cs := st.coord[shard]; cs != nil {
			if n.lacks(blockWant(m.Memgest, shard, m.Block)) {
				refuse(proto.StNotFound)
				return
			}
			n.send(from, &proto.FetchReply{Req: m.Req, Status: proto.StOK, Data: cs.heap.BlockData(m.Block)})
		} else if st.parity == nil || n.wants.at[stripeWant(m.Memgest, stripe)] != nil {
			refuse(proto.StNotFound)
		} else {
			n.startGather(st, stripe, st.layout.StripePos(int(m.Block)), from, m.Req)
		}
	}
}
