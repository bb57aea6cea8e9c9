package core

import (
	"strconv"
	"strings"
	"time"

	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
	"ring/internal/transport"
)

// parseNodeAddr extracts the node ID from a "node/<id>" address.
func parseNodeAddr(addr string) (proto.NodeID, bool) {
	rest, ok := strings.CutPrefix(addr, "node/")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(rest, 10, 32)
	if err != nil {
		return 0, false
	}
	return proto.NodeID(v), true
}

// blockWaiter is a request parked on the want for a lost Rep value or
// SRS block: a get, or (move set) a move that re-enters admitMove.
type blockWaiter struct {
	client  string
	req     proto.ReqID
	key     string
	version proto.Version
	move    *proto.Move
}

// resolveMemgest maps a request's memgest field (0 = default) to the
// memgest info, or nil.
func (n *Node) resolveMemgest(id proto.MemgestID) *proto.MemgestInfo {
	if id == 0 {
		id = n.cfg.Default
	}
	return n.cfg.Memgest(id)
}

// checkClientOp performs the routing checks shared by all client data
// operations and returns the shard, or false after queuing an error
// reply built by fail.
func (n *Node) checkClientOp(key string, fail func(refusal)) (uint32, bool) {
	if len(n.cfg.Coords) == 0 {
		fail(refUnavailable)
		return 0, false
	}
	shard := n.shardOf(key)
	if !n.coordinates(shard) {
		fail(refWrongNode)
		return 0, false
	}
	if n.recovering(shard) {
		fail(refRetry)
		return 0, false
	}
	return shard, true
}

// handlePut coordinates a client write.
func (n *Node) handlePut(from string, m *proto.Put) {
	n.Stats.Puts++
	fail := func(s refusal) { n.refuse(from, m.Req, replyPut, s) }
	shard, ok := n.checkClientOp(m.Key, fail)
	if !ok {
		return
	}
	if n.parkOnMove(shard, m.Key, from, m) {
		return
	}
	mi := n.resolveMemgest(m.Memgest)
	if mi == nil {
		fail(refNoMemgest)
		return
	}
	n.doWrite(from, m.Req, replyPut, shard, m.Key, m.Value, mi.ID, false)
}

// handleDelete coordinates a client delete (a tombstone write).
func (n *Node) handleDelete(from string, m *proto.Delete) {
	n.Stats.Deletes++
	fail := func(s refusal) { n.refuse(from, m.Req, replyDelete, s) }
	shard, ok := n.checkClientOp(m.Key, fail)
	if !ok {
		return
	}
	if n.parkOnMove(shard, m.Key, from, m) {
		return
	}
	// A delete is a tombstone put into the memgest currently holding
	// the key's highest version (metadata suffices; no value). A key
	// whose newest version is already a tombstone is absent.
	e := n.indexFor(shard).Highest(m.Key)
	if e == nil || e.Rec.Tombstone {
		fail(refNotFound)
		return
	}
	n.doWrite(from, m.Req, replyDelete, shard, m.Key, nil, e.Rec.Memgest, true)
}

// doWrite runs the write-ahead, replicate, commit pipeline shared by
// put, delete (tombstone), and the local half of move. It reports
// whether the write was actually launched (false means an error reply
// was already sent) so startMove can close its window on a
// synchronous failure.
func (n *Node) doWrite(replyTo string, req proto.ReqID, kind replyKind, shard uint32, key string, value []byte, mgID proto.MemgestID, tombstone bool) bool {
	st := n.mgFor(mgID)
	if st == nil {
		n.refuse(replyTo, req, kind, refNoMemgest)
		return false
	}
	cs := st.coord[shard]
	if cs == nil {
		n.refuse(replyTo, req, kind, refWrongNode)
		return false
	}
	// Count the op against its memgest only now, with routing and
	// memgest resolution behind us: these counters promise to match an
	// accepted workload exactly.
	switch kind {
	case replyPut:
		st.met.Puts.Inc()
	case replyDelete:
		st.met.Deletes.Inc()
	case replyMove:
		st.met.Moves.Inc()
	}
	var ver proto.Version = 1
	if hi := n.indexFor(shard).Highest(key); hi != nil {
		ver = hi.Rec.Version + 1
	}
	rec := proto.MetaRecord{
		Key: key, Version: ver, Memgest: mgID,
		Tombstone: tombstone, Length: uint32(len(value)),
	}
	seq := cs.tracker.Next()

	if n.opts.ChaosUnsafeAck {
		// Injected bug (chaos-harness validation only): acknowledge and
		// commit locally without waiting for — or even issuing — the
		// redundancy writes, the classic ack-before-quorum bug where the
		// reply path races ahead of the replication path. Every
		// acknowledged write now lives only on this coordinator, so a
		// later crash of it silently loses acked data, which the
		// linearizability checker must flag and the shrinker must reduce
		// to a minimal kill schedule.
		if st.info.Scheme.Kind == proto.SchemeSRS && !tombstone && len(value) > 0 {
			ext, err := cs.heap.Alloc(len(value))
			if err != nil {
				n.refuse(replyTo, req, kind, refUnavailable)
				return false
			}
			cs.heap.Write(ext, value)
			rec.LocBlock = ext.Block
			rec.LocOff = ext.Off
		}
		n.writeAhead(st, cs, rec, seq, value)
		n.commitEntry(replog.ChaosForgeQuorum(), st, cs, key, ver, replyTo, req, kind, n.now)
		return true
	}

	switch st.info.Scheme.Kind {
	case proto.SchemeSRS:
		if !tombstone && len(value) > 0 {
			ext, err := cs.heap.Alloc(len(value))
			if err != nil {
				n.refuse(replyTo, req, kind, refUnavailable)
				return false
			}
			if w := n.wants.at[blockWant(mgID, shard, ext.Block)]; w != nil {
				// The target block has not been re-decoded yet after a
				// failover; writing would corrupt parity deltas. Decode it
				// next: the client is about to come back.
				cs.heap.Free(ext)
				n.hurry(w)
				n.refuse(replyTo, req, kind, refRetry)
				return false
			}
			delta := cs.heap.Write(ext, value)
			n.Stats.BytesWritten += uint64(len(value))
			rec.LocBlock = ext.Block
			rec.LocOff = ext.Off
			stripeOff := uint32(st.layout.StripeOffset(int(ext.Block)))
			// The coordinator performs the GF multiplications that
			// build the per-parity deltas ("data nodes are responsible
			// for calculating updates"), each into a pooled buffer that
			// goes back to the pool once its ParityUpdate is encoded.
			n.deltas = n.deltas[:0]
			for range st.info.Scheme.M {
				n.deltas = append(n.deltas, transport.AcquireBufSize(len(delta))[:len(delta)])
			}
			st.layout.ParityDeltaInto(int(ext.Block), delta, n.deltas)
			n.Stats.BytesParityXor += uint64(len(delta) * st.info.Scheme.M)
			for r, pn := range parityNodes(&st.info) {
				n.sendScratch(NodeAddr(pn), &proto.ParityUpdate{
					Memgest: mgID, Shard: shard, Seq: seq, Rec: rec,
					Block: ext.Block, StripeOff: stripeOff, Off: ext.Off,
					Delta: n.deltas[r],
				}, n.deltas[r])
				n.Stats.ParityUpdates++
			}
		} else {
			// Metadata-only update (tombstone or empty value): still
			// replicated to every parity node for durability.
			for _, pn := range parityNodes(&st.info) {
				n.sendNode(pn, &proto.ParityUpdate{
					Memgest: mgID, Shard: shard, Seq: seq, Rec: rec,
				})
				n.Stats.ParityUpdates++
			}
		}

	case proto.SchemeRep:
		// value is a view into the client's packet (or the copy a move
		// read out of its source memgest): each replica's append carries
		// a copy of its own, because the encoder reads it after this
		// handler and every later one of the batch have returned.
		for _, rn := range replicaSet(n.cfg, &st.info, shard) {
			buf := copyOut(value)
			n.sendScratch(NodeAddr(rn), &proto.RepAppend{Memgest: mgID, Shard: shard, Seq: seq, Rec: rec, Value: buf}, buf)
			n.Stats.RepAppends++
		}
	}

	n.writeAhead(st, cs, rec, seq, value)

	if q, done := cs.tracker.Open(seq, n.quorumAcks(st.info.Scheme)); done {
		// Unreliable memgests commit immediately (Rep(1,s)).
		n.commitEntry(q, st, cs, key, ver, replyTo, req, kind, n.now)
		return true
	}
	cs.pending[seq] = &pendingCommit{key: key, version: ver, start: n.now, replyTo: replyTo, req: req, kind: kind}
	return true
}

// writeAhead inserts a coordinated write's entry, uncommitted, before
// the commit decision. A replicated put's one copy on this node is the
// table's.
func (n *Node) writeAhead(st *mgState, cs *coordShard, rec proto.MetaRecord, seq proto.Seq, value []byte) {
	e := cs.meta.Put(&store.Entry{Rec: rec, Seq: seq})
	if st.info.Scheme.Kind == proto.SchemeRep {
		cs.meta.Hold(e, value)
	}
	n.persistAppend(st, cs.shard, e)
}

// refusal is the status of a refused write: any but StOK, for which it
// has no constant. A proto.Status does not convert to it implicitly, so
// no forwarded status can turn a refusal into an acknowledgement;
// refuse rejects the zero value Go still allows.
type refusal proto.Status

const (
	refNotFound    = refusal(proto.StNotFound)
	refNoMemgest   = refusal(proto.StNoMemgest)
	refWrongNode   = refusal(proto.StWrongNode)
	refRetry       = refusal(proto.StRetry)
	refInvalid     = refusal(proto.StInvalid)
	refUnavailable = refusal(proto.StUnavailable)
)

// refuse sends the error reply appropriate for a write kind.
func (n *Node) refuse(replyTo string, req proto.ReqID, kind replyKind, s refusal) {
	if s == 0 {
		panic("core: refusal carrying StOK")
	}
	switch kind {
	case replyPut:
		n.send(replyTo, &proto.PutReply{Req: req, Status: proto.Status(s)})
	case replyDelete:
		n.send(replyTo, &proto.DeleteReply{Req: req, Status: proto.Status(s)})
	case replyMove:
		if id, ok := strings.CutPrefix(replyTo, bulkMovePrefix); ok {
			n.bulkMoveDone(id, s)
			return
		}
		n.send(replyTo, &proto.MoveReply{Req: req, Status: proto.Status(s)})
	}
}

// replyOK acknowledges a write. It is the only function that builds a
// PutReply, DeleteReply or MoveReply able to say StOK, and it takes the
// proof that the write's redundancy is complete: from commitEntry, or
// from replog.Committed for a move that had nothing to write.
func (n *Node) replyOK(q replog.Quorum, replyTo string, req proto.ReqID, kind replyKind, ver proto.Version) {
	q.Assert()
	switch kind {
	case replyPut:
		n.send(replyTo, &proto.PutReply{Req: req, Status: proto.StOK, Version: ver})
	case replyDelete:
		n.send(replyTo, &proto.DeleteReply{Req: req, Status: proto.StOK})
	case replyMove:
		if id, ok := strings.CutPrefix(replyTo, bulkMovePrefix); ok {
			if bm := n.bulkMoveDone(id, 0); bm != nil {
				n.send(bm.client, &proto.MoveReply{Req: bm.req, Status: proto.StOK, Moved: bm.moved})
			}
			return
		}
		n.send(replyTo, &proto.MoveReply{Req: req, Status: proto.StOK, Version: ver})
	}
}

// commitEntry marks (key, version) committed under the proof that its
// redundancy is complete, replies to the client, answers parked
// requests, propagates the commit to redundancy nodes, and
// garbage-collects superseded versions.
func (n *Node) commitEntry(q replog.Quorum, st *mgState, cs *coordShard, key string, ver proto.Version, replyTo string, req proto.ReqID, kind replyKind, start time.Duration) {
	e := cs.meta.Get(key, ver)
	if e == nil {
		return // purged concurrently (superseded before committing)
	}
	e.Rec.Committed = true
	n.persistCommit(st, cs.shard, e)
	n.Stats.Commits++
	st.met.Commits.Inc()
	if st.info.Scheme.Kind == proto.SchemeSRS {
		n.Metrics.CommitSRS.Observe(n.now - start)
	} else {
		n.Metrics.CommitRep.Observe(n.now - start)
	}
	if op := kind.traceOp(); op != metrics.TraceNone {
		n.Metrics.Trace.Record(op, key, uint32(st.info.ID), uint64(ver), uint8(proto.StOK), n.now, n.now-start)
	}
	n.replyOK(q, replyTo, req, kind, ver)

	// Answer gets parked on this entry (Figure 5: replies are released
	// at commit time with this exact version).
	parked := e.TakeParked()
	for _, w := range parked.Gets {
		n.sendValueReply(st, cs, e, w.Client, w.Req)
	}

	// Propagate the commit so redundancy copies flip their flag.
	n.broadcastCommit(st, cs.shard, e.Seq)

	// GC versions superseded by the newest committed one.
	n.gcKey(cs.shard, key)

	// A committed move closes its window, replaying any client writes
	// parked on it.
	if kind == replyMove {
		mk := moveKey{shard: cs.shard, key: key}
		if mv := n.moving[mk]; mv != nil && mv.newVer == ver {
			n.closeMove(mk, mv)
		}
	}

	// Parked moves proceed now that the source version is durable.
	for _, mw := range parked.Moves {
		n.admitMove(mw.Client, mw.Move)
	}
}

// broadcastCommit notifies the memgest's redundancy nodes that seq
// committed.
func (n *Node) broadcastCommit(st *mgState, shard uint32, seq proto.Seq) {
	msg := &proto.RepCommit{Memgest: st.info.ID, Shard: shard, Seq: seq}
	if st.info.Scheme.Kind == proto.SchemeSRS {
		for _, pn := range parityNodes(&st.info) {
			n.sendNode(pn, msg)
		}
	} else {
		for _, rn := range replicaSet(n.cfg, &st.info, shard) {
			n.sendNode(rn, msg)
		}
	}
}

// gcKey removes committed versions of key that are superseded by the
// newest committed version, keeping Options.KeepVersions extras.
func (n *Node) gcKey(shard uint32, key string) {
	x := n.indexFor(shard)
	head := x.Highest(key)
	newest := head
	for newest != nil && !newest.Rec.Committed {
		newest = x.Older(newest)
	}
	if newest == nil {
		return
	}
	unreliable := func(e *store.Entry) bool {
		mi := n.cfg.Memgest(e.Rec.Memgest)
		return mi != nil && mi.Scheme.Kind == proto.SchemeRep && mi.Scheme.R == 1
	}
	// With KeepDurableBackup, while the newest committed version is
	// unreliable, the newest committed *reliable* version is pinned.
	pin := n.opts.KeepDurableBackup && unreliable(newest)
	kept := 0
	for e := x.Older(newest); e != nil; {
		next := x.Older(e) // before a purge frees e's slot
		switch {
		case !e.Rec.Committed:
			// Uncommitted lower versions stay: they may commit later
			// and owe parked replies (then this GC runs again).
		case pin && n.cfg.Memgest(e.Rec.Memgest) != nil && !unreliable(e):
			pin = false // the pinned reliable backup
		case kept < n.opts.KeepVersions:
			kept++
		default:
			n.purgeVersion(shard, key, e.Ref())
		}
		e = next
	}
	// A committed tombstone that has become the key's only version
	// carries no information: the key is absent either way. Reclaim it
	// once no newer (uncommitted) versions are in flight and nothing
	// is parked on it.
	if newest == head && x.Older(newest) == nil && newest.Rec.Tombstone && !newest.HasParked() {
		n.purgeVersion(shard, key, newest.Ref())
	}
}

// purgeVersion removes one version locally and tells the memgest's
// redundancy nodes to do the same.
func (n *Node) purgeVersion(shard uint32, key string, ref store.VersionRef) {
	st := n.mgFor(ref.Memgest)
	if st == nil {
		return
	}
	cs := st.coord[shard]
	if cs == nil {
		return
	}
	e, ok := cs.meta.Delete(key, ref.Version)
	if !ok {
		return
	}
	n.persistPurge(ref.Memgest, shard, key, ref.Version, e.Seq)
	if ext := e.Extent(); ext.Len > 0 && cs.heap != nil {
		cs.heap.Free(ext)
	}
	msg := &proto.Purge{Memgest: ref.Memgest, Shard: shard, Key: key, Version: ref.Version}
	if st.info.Scheme.Kind == proto.SchemeSRS {
		for _, pn := range parityNodes(&st.info) {
			n.sendNode(pn, msg)
		}
	} else if st.info.Scheme.R > 1 {
		for _, rn := range replicaSet(n.cfg, &st.info, shard) {
			n.sendNode(rn, msg)
		}
	}
}

func (n *Node) handleGet(from string, m *proto.Get) {
	n.Stats.Gets++
	fail := func(s refusal) { n.send(from, &proto.GetReply{Req: m.Req, Status: proto.Status(s)}) }
	shard, ok := n.checkClientOp(m.Key, fail)
	if !ok {
		return
	}
	x := n.indexFor(shard)
	e := x.Highest(m.Key)
	// Exact-version read: serve the requested version if it is still
	// retained (Options.KeepVersions governs retention).
	for m.Version != 0 && e != nil && e.Rec.Version != m.Version {
		e = x.Older(e)
	}
	if e == nil {
		fail(refNotFound)
		return
	}
	st := n.mgFor(e.Rec.Memgest)
	cs := st.coord[shard]
	st.met.Gets.Inc()
	if !e.Rec.Committed {
		// Park: the reply is released when this exact version commits
		// (Figure 5, client D).
		p := e.Park()
		p.Gets = append(p.Gets, store.Waiter{Client: from, Req: m.Req})
		n.Stats.ParkedGets++
		return
	}
	n.sendValueReply(st, cs, e, from, m.Req)
}

// sendValueReply emits a GetReply for a committed entry, recovering
// the backing SRS block on demand if it was lost in a failover.
func (n *Node) sendValueReply(st *mgState, cs *coordShard, e *store.Entry, client string, req proto.ReqID) {
	if e.Rec.Tombstone {
		n.Metrics.Trace.Record(metrics.TraceGet, e.Rec.Key, uint32(st.info.ID), uint64(e.Rec.Version), uint8(proto.StNotFound), n.now, 0)
		n.send(client, &proto.GetReply{Req: req, Status: proto.StNotFound})
		return
	}
	value, ok := n.localValue(st, cs, e, blockWaiter{client: client, req: req, key: e.Rec.Key, version: e.Rec.Version})
	if !ok {
		return
	}
	n.Metrics.Trace.Record(metrics.TraceGet, e.Rec.Key, uint32(st.info.ID), uint64(e.Rec.Version), uint8(proto.StOK), n.now, 0)
	n.sendScratch(client, &proto.GetReply{Req: req, Status: proto.StOK, Version: e.Rec.Version, Value: value}, value)
}

// localValue returns a copy of the bytes behind a committed, live
// entry, in a pooled buffer the caller owns: it travels with a message
// as Out.Scratch or goes back with transport.ReleaseBuf. Stored bytes
// are live — a later event of the same batch may free a Rep value's
// slot or an SRS extent and write the next value there before a reply
// is encoded — so no view of them leaves the handler that read them.
// When a failover lost the bytes — a Rep value not yet re-fetched, an
// SRS block not yet re-decoded — localValue parks w on their want, has
// it asked at once, and reports false; closeWant resumes the request.
func (n *Node) localValue(st *mgState, cs *coordShard, e *store.Entry, w blockWaiter) (value []byte, ok bool) {
	if e.Rec.Length == 0 {
		return nil, true
	}
	var lost wantID
	if st.info.Scheme.Kind == proto.SchemeRep {
		if b, held := e.Bytes(); held {
			return copyOut(b), true
		}
		lost = valueWant(role{st.info.ID, cs.shard, roleCoordinator}, e.Rec.Key, e.Rec.Version)
	} else {
		ext := e.Extent()
		if lost = blockWant(st.info.ID, cs.shard, ext.Block); !n.lacks(lost) {
			buf := transport.AcquireBufSize(int(ext.Len))[:ext.Len]
			cs.heap.ReadInto(buf, ext)
			return buf, true
		}
	}
	want := n.wants.open(lost)
	want.parked = append(want.parked, w)
	n.hurry(want)
	return nil, false
}

// copyOut copies b into a pooled buffer (nil for no bytes).
func copyOut(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append(transport.AcquireBufSize(len(b)), b...)
}

// handleAck counts a replica's RepAck or a parity node's ParityAck
// toward the write's quorum, and commits it on the ack that completes it.
func (n *Node) handleAck(from string, mgID proto.MemgestID, shard uint32, seq proto.Seq) {
	id, ok := parseNodeAddr(from)
	if !ok {
		return
	}
	st := n.mgFor(mgID)
	if st == nil {
		return
	}
	cs := st.coord[shard]
	if cs == nil {
		return
	}
	q, reached := cs.tracker.Ack(seq, id)
	if !reached {
		return
	}
	pc := cs.pending[seq]
	if pc == nil {
		return
	}
	delete(cs.pending, seq)
	n.commitEntry(q, st, cs, pc.key, pc.version, pc.replyTo, pc.req, pc.kind, pc.start)
}
