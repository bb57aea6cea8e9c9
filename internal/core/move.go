package core

import (
	"bytes"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ring/internal/proto"
	"ring/internal/replog"
	"ring/internal/store"
	"ring/internal/transport"
)

// This file implements move, the one operation that changes a key's
// scheme (the paper's Section 4, Figure 8): re-homing the key's durable
// highest version from its current memgest into another one — Rep(3)
// to SRS(3,2), say — while the cluster keeps serving. A move is a
// re-put: the coordinator reads the committed source version locally
// (SRS co-location makes the read free of network traffic), opens a
// window, and runs the normal write pipeline into the destination
// memgest. Client writes to the key park on the window and
// replay when it closes; reads ride the existing parked-get machinery
// (a get of the in-flight destination version parks until commit, gets
// of the source version keep being served from it). The window is
// crash-safe with no record of its own: the destination version commits
// before the ack escapes and the source version is purged only after,
// so replay lands on exactly the old or the new scheme, never a hybrid.
// A move may be conditional on the source memgest (Move.From) or fan
// out over a key prefix (Move.Prefix).

// moveKey identifies one open move window on a coordinator.
type moveKey struct {
	shard uint32
	key   string
}

// moveState is the coordinator-side state of one open window.
type moveState struct {
	// client is the address the reply is owed to when the window closes
	// (possibly a bulk-move internal address, see bulkMovePrefix); m is
	// the request, kept so a replan can run it again from the top.
	client string
	m      *proto.Move
	// newVer is the version the destination write is in flight under.
	newVer proto.Version
	// parked holds client writes that arrived inside the window, in
	// arrival order; they replay through the normal dispatch when the
	// window closes.
	parked []parkedOp
	// started drives the window timeout (moveTick): a destination write
	// whose appends or acks the network ate would otherwise hold the
	// window — and every write parked on it — open forever.
	started time.Duration
}

// parkedOp is one client write parked on a move window.
type parkedOp struct {
	from string
	msg  proto.Message
}

// bulkMovePrefix marks the internal reply address of a per-key move
// launched by a bulk (prefix) move; the suffix is the bulk id.
const bulkMovePrefix = "bulkmove/"

// bulkMove aggregates the per-key outcomes of one prefix move.
type bulkMove struct {
	client      string
	req         proto.ReqID
	outstanding int
	moved       uint32
	failed      refusal // the first among the keys, 0 while there is none
}

// parkOnMove parks a client write that arrived inside the key's open
// move window. It reports whether the write was parked; a parked write
// replays when the window closes. This is the retention site of every
// parked op, whichever path it replays through (closeMove, replanMoves,
// a re-park by redispatchParked): a put's value is a view into a packet
// that is recycled long before the window closes, so the parked put
// owns a copy. Deletes and moves carry no bytes.
func (n *Node) parkOnMove(shard uint32, key, from string, msg proto.Message) bool {
	mv := n.moving[moveKey{shard: shard, key: key}]
	if mv == nil {
		return false
	}
	if put, ok := msg.(*proto.Put); ok {
		put.Value = bytes.Clone(put.Value)
	}
	mv.parked = append(mv.parked, parkedOp{from: from, msg: msg})
	return true
}

// handleMove coordinates a client move.
func (n *Node) handleMove(from string, m *proto.Move) {
	n.Stats.Moves++
	if m.Prefix {
		n.handleMovePrefix(from, m)
		return
	}
	n.admitMove(from, m)
}

// admitMove runs one key's move from the top: routing, the key's open
// window, validation against the durable highest version, the local
// read, and the launch. Every deferred move — parked on a window, on an
// uncommitted version, or on the want for a value or block — re-enters here, so
// the rules are checked against the state the move actually runs on.
// from may be a bulk-move internal address; every reply goes through
// refuse or replyOK so the routing is uniform.
func (n *Node) admitMove(from string, m *proto.Move) {
	fail := func(s refusal) { n.refuse(from, m.Req, replyMove, s) }
	shard, ok := n.checkClientOp(m.Key, fail)
	if !ok {
		return
	}
	if n.parkOnMove(shard, m.Key, from, m) {
		return
	}
	if n.cfg.Memgest(m.Memgest) == nil {
		fail(refNoMemgest)
		return
	}
	e := n.indexFor(shard).Highest(m.Key)
	if e == nil {
		fail(refNotFound)
		return
	}
	ref, st := e.Ref(), n.mgFor(e.Rec.Memgest)
	if !e.Rec.Committed {
		// The paper: "the move request will also be postponed if the
		// requested object is not durable."
		p := e.Park()
		p.Moves = append(p.Moves, store.MoveWaiter{Client: from, Move: m})
		return
	}
	switch {
	case e.Rec.Tombstone:
		fail(refNotFound)
		return
	case m.From != 0 && ref.Memgest != m.From:
		// Conditional move: the key is not under the scheme the caller
		// believes (a concurrent move won).
		fail(refInvalid)
		return
	case ref.Memgest == m.Memgest:
		// Already there: succeed without a new version, on the proof of
		// the committed one it names.
		n.replyOK(replog.Committed(&e.Rec), from, m.Req, replyMove, ref.Version)
		return
	}
	value, ok := n.localValue(st, st.coord[shard], e, blockWaiter{client: from, req: m.Req, key: m.Key, version: ref.Version, move: m})
	if !ok {
		return
	}
	n.startMove(from, m, shard, ref, value)
	// The destination write copied the value into its own memgest.
	transport.ReleaseBuf(value)
}

// startMove opens the window and runs the destination write through
// the normal pipeline. The window closes in commitEntry or right here on
// a synchronous launch failure. It keeps nothing on disk of its own: the
// destination version's append and commit records decide, on replay,
// whether the key is under the old scheme or the new one.
func (n *Node) startMove(client string, m *proto.Move, shard uint32, src store.VersionRef, value []byte) {
	newVer := src.Version + 1
	if n.opts.ChaosUnsafeConvert {
		// Injected bug (elasticity chaos-lane validation only): ack the
		// move before its write is even launched and purge the source
		// version while the destination write is still in flight. A
		// coordinator crash inside that gap silently loses the key's
		// acknowledged state, which the linearizability checker must flag
		// and the shrinker must reduce.
		n.replyOK(replog.ChaosForgeQuorum(), client, m.Req, replyMove, newVer)
		n.doWrite("", 0, replyNone, shard, m.Key, value, m.Memgest, false)
		n.purgeVersion(shard, m.Key, src)
		return
	}
	mk := moveKey{shard: shard, key: m.Key}
	mv := &moveState{client: client, m: m, newVer: newVer, started: n.now}
	n.moving[mk] = mv
	if !n.doWrite(client, m.Req, replyMove, shard, m.Key, value, m.Memgest, false) {
		// The launch failed synchronously and the error reply is already
		// queued: lift the parking.
		n.closeMove(mk, mv)
	}
}

// closeMove closes a window and replays the writes that parked on it,
// in arrival order, through the normal dispatch.
func (n *Node) closeMove(mk moveKey, mv *moveState) {
	delete(n.moving, mk)
	for _, p := range mv.parked {
		n.redispatchParked(p)
	}
}

// redispatchParked re-enters a parked client write. Replaying through
// the public handlers keeps every rule (routing, version allocation,
// re-parking on a window a replayed move just opened) in one place.
func (n *Node) redispatchParked(p parkedOp) {
	switch m := p.msg.(type) {
	case *proto.Put:
		n.handlePut(p.from, m)
	case *proto.Delete:
		n.handleDelete(p.from, m)
	case *proto.Move:
		n.admitMove(p.from, m)
	}
}

// handleMovePrefix fans a bulk move out over every key this node
// coordinates that matches the prefix. Each key runs the normal
// single-key move with an internal reply address; the client gets one
// aggregated reply once the last key settles.
func (n *Node) handleMovePrefix(from string, m *proto.Move) {
	fail := func(s refusal) { n.refuse(from, m.Req, replyMove, s) }
	if len(n.cfg.Coords) == 0 {
		fail(refUnavailable)
		return
	}
	if slices.ContainsFunc(n.ownedShards(), n.recovering) {
		fail(refRetry)
		return
	}
	if n.cfg.Memgest(m.Memgest) == nil {
		fail(refNoMemgest)
		return
	}
	// Collect matching keys across every owned shard, once each, in
	// key order: the order of the moves is the order of their messages.
	var keys []string
	for _, shard := range n.ownedShards() {
		n.indexFor(shard).Range(func(e *store.Entry) bool {
			if strings.HasPrefix(e.Rec.Key, m.Key) {
				keys = append(keys, e.Rec.Key)
			}
			return true
		})
	}
	sort.Strings(keys)
	keys = slices.Compact(keys)
	if len(keys) == 0 {
		// Nothing matched, nothing is written: the proof over no entry.
		n.replyOK(replog.Committed(), from, m.Req, replyMove, 0)
		return
	}
	id := strconv.FormatUint(n.nextBulkID, 10)
	n.nextBulkID++
	n.bulkMoves[id] = &bulkMove{client: from, req: m.Req, outstanding: len(keys)}
	replyTo := bulkMovePrefix + id
	for _, key := range keys {
		n.admitMove(replyTo, &proto.Move{Req: m.Req, Key: key, Memgest: m.Memgest, From: m.From})
	}
}

// bulkMoveDone records one key's outcome against its bulk move: its
// refusal, or 0 from replyOK for a key that moved (or was already under
// the destination scheme). When the last key settles, the first refusal
// wins the aggregate and is sent from here (Moved reports how many keys
// moved all the same); a bulk move with none is returned to replyOK,
// which acknowledges it under the proof of the key that settled it.
func (n *Node) bulkMoveDone(id string, s refusal) *bulkMove {
	bm := n.bulkMoves[id]
	if bm == nil {
		return nil
	}
	if s == 0 {
		bm.moved++
	} else if bm.failed == 0 {
		bm.failed = s
	}
	bm.outstanding--
	if bm.outstanding > 0 {
		return nil
	}
	delete(n.bulkMoves, id)
	if bm.failed != 0 {
		n.send(bm.client, &proto.MoveReply{Req: bm.req, Status: proto.Status(bm.failed), Moved: bm.moved})
		return nil
	}
	return bm
}

// abortMoveWrite cancels a window's in-flight destination write: the
// pending commit and its open quorum are dropped (a late ack must not
// resurrect it), gets parked on the uncommitted destination version are
// bounced with StRetry (moves never park there — they park on the
// window), and the version is purged. The committed source version is
// untouched — aborting a move always lands on the old scheme.
func (n *Node) abortMoveWrite(mk moveKey, mv *moveState) {
	dst := mv.m.Memgest
	if st := n.mgFor(dst); st != nil {
		if cs := st.coord[mk.shard]; cs != nil {
			if e := cs.meta.Get(mk.key, mv.newVer); e != nil && !e.Rec.Committed {
				delete(cs.pending, e.Seq)
				cs.tracker.Cancel(e.Seq)
				for _, w := range e.TakeParked().Gets {
					n.send(w.Client, &proto.GetReply{Req: w.Req, Status: proto.StRetry})
				}
				n.purgeVersion(mk.shard, mk.key, store.VersionRef{Version: mv.newVer, Memgest: dst})
			}
		}
	}
}

// openMoves lists the windows open for longer than minAge in (shard,
// key) order: map iteration order is arbitrary and simulator replays
// must be deterministic.
func (n *Node) openMoves(minAge time.Duration) []moveKey {
	var mks []moveKey
	for mk, mv := range n.moving {
		if n.now-mv.started > minAge {
			mks = append(mks, mk)
		}
	}
	sort.Slice(mks, func(i, j int) bool {
		if mks[i].shard != mks[j].shard {
			return mks[i].shard < mks[j].shard
		}
		return mks[i].key < mks[j].key
	})
	return mks
}

// moveTick aborts windows that outlived the failure detector. A window
// normally spans one destination write round-trip; one still open past
// FailAfter has lost an append or an ack to the fault plane, and the
// write pipeline has no retransmit of its own — client writes recover
// from loss through client retries, but those park on the window here,
// so a stuck window would wedge the key forever (new attempts of the
// move itself included). The abort purges the uncommitted destination
// version and answers StRetry; the
// committed source version is untouched, so the caller simply moves
// again.
func (n *Node) moveTick() {
	if len(n.moving) == 0 {
		return
	}
	for _, mk := range n.openMoves(n.opts.FailAfter) {
		mv := n.moving[mk]
		if mv == nil {
			continue // closed by an earlier abort's replay
		}
		n.Metrics.MovesAborted.Inc()
		n.abortMoveWrite(mk, mv)
		n.refuse(mv.client, mv.m.Req, replyMove, refRetry)
		n.closeMove(mk, mv)
	}
}

// replanMoves re-examines every open window after a configuration
// change (installConfig calls it last): a window whose destination
// write was fanned out under the old redundancy assignment may never
// reach quorum under the new one, and a window whose shard moved away
// no longer belongs here. Each window's write is aborted and the move
// runs again from the top against the new configuration — relaunching
// when this node still coordinates the key, answering StWrongNode when
// it does not — so a move racing a node departure replans instead of
// wedging.
func (n *Node) replanMoves() {
	for _, mk := range n.openMoves(-1) { // every window, however young
		mv := n.moving[mk]
		if mv == nil {
			continue // closed by an earlier replan's replay
		}
		n.Metrics.MovesReplanned.Inc()
		if n.coordinates(mk.shard) {
			n.abortMoveWrite(mk, mv)
		} // else the shard moved to another coordinator along with all its state
		delete(n.moving, mk)
		n.admitMove(mv.client, mv.m)
		// The relaunch may have opened a fresh window for the key: carry
		// the parked writes over (they arrived first, they stay first).
		// Otherwise it settled synchronously and they replay now.
		if nv := n.moving[mk]; nv != nil {
			nv.parked = append(mv.parked, nv.parked...)
		} else {
			for _, p := range mv.parked {
				n.redispatchParked(p)
			}
		}
	}
}
