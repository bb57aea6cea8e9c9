package core

import (
	"bytes"
	"container/list"
	"maps"
	"slices"
	"sort"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
)

// This file is the node's one recovery machine (Section 6.4). What a
// role of this node lacks is a want, and every want is in one table:
// gainRole opens a role's metadata want (and a parity region's stripe
// wants), the metadata's arrival opens a want for each value or block
// it names and this node does not hold, a reply that brings the bytes
// closes the want, and loseRole forgets the role's. One pump,
// recoveryTick, asks: a few queued wants at a time, a want a request
// waits on at once, and again — from the next source — any want its
// source refused or left unanswered. Nothing gives up: a want stays
// until it is met or its role goes.
//
// A shard's state is read off the table, never stored: recovering
// while a coordinator role of it wants its metadata, degraded while one
// wants values or blocks, normal otherwise. DESIGN.md section 5
// ("Recovery states") has what each request does in each.

// wantKind says what a want lacks.
type wantKind uint8

const (
	wantMeta   wantKind = iota + 1 // the metadata table of the role's shard
	wantValue                      // the bytes of one (key, version) of a replicated memgest
	wantBlock                      // one SRS data block, decoded by a parity node
	wantStripe                     // one parity block, re-encoded from its stripe's data blocks
)

// wantID names a want: whose it is and what is missing. The parity
// region sits behind all s parity roles of a memgest, which come and go
// together; its stripe wants are filed under the role of shard 0.
type wantID struct {
	role    role
	what    wantKind
	key     string        // wantValue
	version proto.Version // wantValue
	block   uint32        // wantBlock: the logical block; wantStripe: the stripe
}

// want is one open entry of the table.
type want struct {
	wantID
	el *list.Element
	// req names the want in every ask sent for it (0 until the first),
	// so a late answer to an earlier ask is as good as one to the last;
	// asked says an ask is out and askedAt when it left. An ask silent
	// for patience is taken back: FailAfter, and FailAfter more with
	// every silence, so that an answer that takes long to produce (a
	// block is far bigger than a heartbeat) is asked for ever more
	// rarely until it fits. attempt counts the asks and rotates the
	// source.
	req      proto.ReqID
	asked    bool
	askedAt  time.Duration
	patience time.Duration
	attempt  int
	// parked are the gets and moves that need the bytes.
	parked []blockWaiter

	// A metadata want asks every peer holding a copy and merges what
	// they answer: since is the delta floor (a node that recovered
	// durable state needs only what came after), waiting the peers yet
	// to answer, replies what the others said.
	since   proto.Seq
	waiting []proto.NodeID
	replies []*proto.MetaFetchReply
}

// wantTable is what the node lacks: the open wants in the order the
// pump asks them, by name, and — those ever asked — by request.
type wantTable struct {
	order list.List // of *want
	at    map[wantID]*want
	byReq map[proto.ReqID]*want
}

// open returns the want named id, filing it at the end of the table if
// it is not there yet.
func (t *wantTable) open(id wantID) *want {
	w := t.at[id]
	if w == nil {
		w = &want{wantID: id}
		w.el = t.order.PushBack(w)
		t.at[id] = w
	}
	return w
}

func (t *wantTable) remove(w *want) {
	t.order.Remove(w.el)
	delete(t.at, w.wantID)
	delete(t.byReq, w.req)
}

// maxBgInflight bounds the value, block and stripe asks in flight that
// no request waits for.
const maxBgInflight = 4

// blockWant names the want for one SRS block of a shard this node
// coordinates.
func blockWant(mg proto.MemgestID, shard, block uint32) wantID {
	return wantID{role: role{mg, shard, roleCoordinator}, what: wantBlock, block: block}
}

// valueWant names the want for the bytes of one version a role holds the
// metadata of.
func valueWant(r role, key string, version proto.Version) wantID {
	return wantID{role: r, what: wantValue, key: key, version: version}
}

// stripeWant names the want for one block of this node's parity region.
func stripeWant(mg proto.MemgestID, stripe int) wantID {
	return wantID{role: role{mg, 0, roleParity}, what: wantStripe, block: uint32(stripe)}
}

// lacks reports whether the node is without what id names: the want is
// open, or the metadata that would have opened it is still to come. It
// is the one serve-side rule — a node does not serve bytes it has an
// open want for.
func (n *Node) lacks(id wantID) bool {
	return len(n.wants.at) > 0 &&
		(n.wants.at[id] != nil || n.wants.at[wantID{role: id.role, what: wantMeta}] != nil)
}

// recovering reports whether a shard this node coordinates still wants
// metadata: until every memgest's table is in, the shard's volatile
// index cannot say where a key's newest version lives.
func (n *Node) recovering(shard uint32) bool {
	if len(n.wants.at) == 0 {
		return false
	}
	for i := range n.cfg.Memgests {
		if n.wants.at[wantID{role: role{n.cfg.Memgests[i].ID, shard, roleCoordinator}, what: wantMeta}] != nil {
			return true
		}
	}
	return false
}

// shardStates counts the shards this node coordinates that are
// recovering and that are degraded.
func (n *Node) shardStates() (recovering, degraded int64) {
	shards := make(map[uint32]bool)
	for id := range n.wants.at {
		if id.role.kind == roleCoordinator {
			shards[id.role.shard] = true
		}
	}
	for shard := range shards {
		if n.recovering(shard) {
			recovering++
		} else {
			degraded++
		}
	}
	return recovering, degraded
}

// Serving reports whether the node has been admitted and the metadata
// of every role it holds is in.
func (n *Node) Serving() bool {
	for _, w := range n.wants.at {
		if w.what == wantMeta {
			return false
		}
	}
	return !n.rejoining
}

// wantMetadata opens the metadata want of a role just gained and asks
// the nodes that replicate the shard (step 5 of the Section 6.4
// sequence): a coordinator asks its parity nodes or replicas, a
// redundancy copy asks the authoritative coordinator. Rep(1,s) has
// nobody to ask and restarts empty.
func (n *Node) wantMetadata(r role, since proto.Seq) {
	mi := &n.mg[r.mg].info
	var peers []proto.NodeID
	switch {
	case r.kind != roleCoordinator:
		peers = []proto.NodeID{n.cfg.Coords[r.shard]}
	case mi.Scheme.Kind == proto.SchemeSRS:
		peers = parityNodes(mi)
	default:
		peers = replicaSet(n.cfg, mi, r.shard)
	}
	peers = slices.DeleteFunc(slices.Clone(peers), func(p proto.NodeID) bool { return p == n.id })
	if len(peers) == 0 {
		return
	}
	w := n.wants.open(wantID{role: r, what: wantMeta})
	w.since, w.waiting = since, peers
	n.ask(w)
}

// ask sends a want's request to its next source. A want no longer
// needed (its entry was purged, or got its bytes some other way) is
// closed instead.
func (n *Node) ask(w *want) {
	st := n.mg[w.role.mg]
	if w.what == wantValue {
		if e := st.table(w.role).Get(w.key, w.version); e == nil || e.Held() {
			n.closeWant(w)
			return
		}
	}
	if w.req == 0 {
		w.req, w.patience = n.reqID(), n.opts.FailAfter
		n.wants.byReq[w.req] = w
	}
	w.asked, w.askedAt = true, n.now
	if w.attempt > 0 {
		n.Metrics.RecoveryReasks.Inc()
	}
	var src []proto.NodeID
	switch {
	case w.what == wantMeta:
		for _, p := range w.waiting {
			n.sendNode(p, &proto.MetaFetch{Req: w.req, Memgest: w.role.mg, Shard: w.role.shard, Since: w.since})
		}
	case w.what == wantStripe:
		n.startGather(st, int(w.block), -1, "", w.req)
	case w.what == wantBlock:
		src = parityNodes(&st.info)
	case w.role.kind == roleCoordinator:
		src = replicaSet(n.cfg, &st.info, w.role.shard)
	default: // a replica asks the coordinator
		src = []proto.NodeID{n.cfg.Coords[w.role.shard]}
	}
	if src != nil {
		n.sendNode(src[w.attempt%len(src)], &proto.Fetch{
			Req: w.req, Memgest: w.role.mg, Shard: w.role.shard, Key: w.key, Version: w.version, Block: w.block,
		})
	}
	w.attempt++
}

// hurry asks a want a request needs at once, outside the background
// budget ("if the requested data is lost, it will be recovered with an
// on the fly recovery algorithm with high priority"), and keeps it at
// the head of the table.
func (n *Node) hurry(w *want) {
	n.wants.order.MoveToFront(w.el)
	if !w.asked {
		n.ask(w)
	}
}

// askAgain takes back an ask its source refused or never answered; the
// pump sends the next one, after the wants already queued unless a
// request is waiting.
func (n *Node) askAgain(w *want) {
	w.asked = false
	if len(w.parked) == 0 {
		n.wants.order.MoveToBack(w.el)
	}
}

// closeWant removes a met want and resumes the requests parked on it.
func (n *Node) closeWant(w *want) {
	n.wants.remove(w)
	st := n.mg[w.role.mg]
	for _, pw := range w.parked {
		if pw.move != nil {
			n.admitMove(pw.client, pw.move)
		} else if e := st.coord[w.role.shard].meta.Get(pw.key, pw.version); e != nil {
			n.sendValueReply(st, st.coord[w.role.shard], e, pw.client, pw.req)
		} else {
			// The version was purged while the get waited (a newer one
			// committed): the client asks again and gets that one.
			n.send(pw.client, &proto.GetReply{Req: pw.req, Status: proto.StRetry})
		}
	}
}

// forgetWants drops every want of a role the configuration took away,
// and the stripes a lost parity region was gathering; the requests
// parked on them retry against the role's new holder.
func (n *Node) forgetWants(r role) {
	var next *list.Element
	for el := n.wants.order.Front(); el != nil; el = next {
		next = el.Next()
		w := el.Value.(*want)
		if w.role != r {
			continue
		}
		n.wants.remove(w)
		for _, pw := range w.parked {
			if pw.move != nil {
				n.refuse(pw.client, pw.move.Req, replyMove, refRetry)
			} else {
				n.send(pw.client, &proto.GetReply{Req: pw.req, Status: proto.StRetry})
			}
		}
	}
	if r.kind == roleParity {
		n.gathers = slices.DeleteFunc(n.gathers, func(g *gather) bool { return g.mg == r.mg })
	}
}

// recoveryTick is the pump. It asks again for the blocks of every
// gather that has been silent for its patience, takes back every ask
// that has been — a metadata want first forgets the peers the
// configuration dropped (they died and were replaced; waiting for them
// would wedge the shard in recovering forever) and is complete if none
// is left; a stripe want is never silent, its gather is — and then asks
// from the head of the table: every want a request waits on, and queued
// ones while fewer than maxBgInflight are in flight.
func (n *Node) recoveryTick() {
	for _, g := range n.gathers {
		if n.now-g.askedAt > g.patience {
			g.patience *= 2
			n.Metrics.RecoveryReasks.Inc()
			n.askBlocks(n.mg[g.mg], g)
		}
	}
	inflight := 0
	var next *list.Element
	for el := n.wants.order.Front(); el != nil; el = next {
		next = el.Next()
		w := el.Value.(*want)
		switch {
		case !w.asked:
		case n.now-w.askedAt <= w.patience || w.what == wantStripe:
			if w.what != wantMeta {
				inflight++
			}
		default:
			w.patience *= 2
			if w.what != wantMeta {
				n.askAgain(w)
				break
			}
			w.waiting = slices.DeleteFunc(w.waiting, func(p proto.NodeID) bool { return !isMember(n.cfg, p) })
			if len(w.waiting) == 0 {
				n.finishMetadata(w)
			} else {
				n.ask(w)
			}
		}
	}
	for el := n.wants.order.Front(); el != nil; el = next {
		next = el.Next()
		w := el.Value.(*want)
		if w.asked {
			continue
		}
		if len(w.parked) == 0 && inflight >= maxBgInflight {
			break
		}
		if n.ask(w); w.asked {
			inflight++
		}
	}
}

func (n *Node) handleMetaFetchReply(from string, m *proto.MetaFetchReply) {
	w := n.wants.byReq[m.Req]
	id, ok := parseNodeAddr(from)
	if w == nil || w.what != wantMeta || !ok || !slices.Contains(w.waiting, id) {
		return
	}
	w.waiting = slices.DeleteFunc(w.waiting, func(p proto.NodeID) bool { return p == id })
	if m.Status == proto.StOK {
		w.replies = append(w.replies, m)
	}
	if len(w.waiting) == 0 {
		n.finishMetadata(w)
	}
}

// finishMetadata merges the fetched metadata copies, installs them for
// the role, and opens a want for each value or block the role now
// knows of and does not hold.
//
// Commit resolution: every entry present on ANY queried copy is
// treated as committed. A write-ahead entry reaches a redundancy node
// only for an operation the client either saw acknowledged (the
// quorum commit may have included exactly that node, so dropping the
// entry would lose an acked write — a violation the chaos harness
// catches as a stale read or resurrected delete) or never saw
// complete (a pending operation, which linearizability allows to take
// effect). Committing both is always safe because reads serve the
// highest committed version: a resurrected stale version is
// superseded by the newer committed version that any ack quorum
// guarantees is also in the union.
func (n *Node) finishMetadata(w *want) {
	n.wants.remove(w)
	st, r := n.mg[w.role.mg], w.role
	n.Stats.MetaRecovs++

	table, cs := st.table(r), st.coord[r.shard]
	union := make(map[store.EntryKey]proto.MetaRecord)
	for _, rep := range w.replies {
		if r.kind == roleCoordinator {
			// A durable node delta-synced: advance the sequence allocator
			// past everything the peers have seen, so re-allocated
			// sequences never collide with the previous life's.
			cs.tracker.Advance(rep.Seq)
		}
		for _, rec := range rep.Recs {
			rec.Committed = true
			union[store.EntryKey{Key: rec.Key, Version: rec.Version}] = rec
		}
	}
	// Install in (key, version) order: map iteration order is random
	// per run, and it leaks into the heap-extent reservation order, the
	// order of the table, and ultimately the message schedule — which
	// must be a pure function of the seed for replay to work.
	keys := make([]store.EntryKey, 0, len(union))
	for ek, rec := range union {
		keys = append(keys, ek)
		n.Stats.BytesMetaInstalled += uint64(len(rec.Key)) + 26
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })

	for _, ek := range keys {
		e := table.Get(ek.Key, ek.Version)
		switch {
		case e != nil && e.Rec.Committed:
			continue
		case e != nil:
			// Already installed from the durable stash: keep its value and
			// extent, just make sure it is committed.
			e.Rec.Committed = true
		default:
			e = &store.Entry{Rec: union[ek]}
			if r.kind == roleCoordinator && st.layout != nil && cs.heap.Reserve(e.Extent()) != nil {
				continue // conflicting metadata (should not happen); skip
			}
			e = table.Put(e)
		}
		n.persistInstall(st, r.shard, e)
	}

	switch {
	case r.kind == roleParity:
		// Parity blocks are rebuilt once per stripe, not per shard:
		// gainRole opened those wants.
	case st.layout != nil:
		lo, hi := st.layout.NodeBlocks(int(r.shard))
		for b := lo; b < hi; b++ {
			n.wants.open(blockWant(r.mg, r.shard, uint32(b)))
		}
	case st.info.Scheme.R > 1:
		// The whole table, not just keys: a stash entry may lack its
		// bytes too. RecordsSince is sorted, like everything the table is
		// filled from: the order of these wants is the order of the
		// messages that ask for them.
		for _, rec := range table.RecordsSince(0) {
			if !table.Get(rec.Key, rec.Version).Held() {
				n.wants.open(valueWant(r, rec.Key, rec.Version))
			}
		}
	}
}

// gather is one stripe being collected on a parity node: to decode the
// block at stripe position missing for whoever asked (to, req), or —
// missing < 0 — to re-encode this node's own parity block for the
// stripe want asked as req. Its blocks are asked for together; while
// one is silent all are asked for again, and what had come before is
// dropped, so that what a gather ends with was read within one exchange
// (an answer to an earlier round that comes late is as good as one to
// the last). A coordinator answers with the block or a refusal, so a
// gather ends.
type gather struct {
	mg      proto.MemgestID
	stripe  int
	missing int
	to      string
	req     proto.ReqID
	// asked maps the request of every Fetch sent to the stripe position
	// asked for; have maps stripe position -> block contents (nil: the
	// coordinator refused; this node's own parity sits at position k+r
	// when decoding).
	asked    map[proto.ReqID]int
	have     map[int][]byte
	askedAt  time.Duration
	patience time.Duration
}

// startGather asks the coordinators for the data blocks of a stripe,
// all but the one at position missing. An ask whose gather is still
// going (the asker's patience ran out first) starts no second one.
func (n *Node) startGather(st *mgState, stripe, missing int, to string, req proto.ReqID) {
	if slices.ContainsFunc(n.gathers, func(g *gather) bool { return g.to == to && g.req == req }) {
		return
	}
	g := &gather{mg: st.info.ID, stripe: stripe, missing: missing, to: to, req: req, asked: make(map[proto.ReqID]int), patience: n.opts.FailAfter}
	n.gathers = append(n.gathers, g)
	n.askBlocks(st, g)
}

func (n *Node) askBlocks(st *mgState, g *gather) {
	g.askedAt, g.have = n.now, make(map[int][]byte)
	if g.missing >= 0 {
		g.have[st.layout.K+st.parityIdx] = st.parity.Block(g.stripe)
	}
	for _, b := range st.layout.StripeMembers(g.stripe) {
		if pos := st.layout.StripePos(b); pos != g.missing {
			r := n.reqID()
			g.asked[r] = pos
			n.sendNode(n.cfg.Coords[st.layout.DataNodeOf(b)], &proto.Fetch{Req: r, Memgest: g.mg, Block: uint32(b)})
		}
	}
}

// handleFetchReply brings bytes: one block of a gather, or what a value
// or block want asked for.
func (n *Node) handleFetchReply(_ string, m *proto.FetchReply) {
	for _, g := range n.gathers {
		if pos, ok := g.asked[m.Req]; ok {
			n.gathered(g, pos, m)
			return
		}
	}
	w := n.wants.byReq[m.Req]
	if w == nil || w.what != wantValue && w.what != wantBlock {
		return
	}
	if m.Status != proto.StOK {
		n.askAgain(w)
		return
	}
	st := n.mg[w.role.mg]
	if w.what == wantBlock {
		st.coord[w.role.shard].heap.SetBlockData(w.block, m.Data)
	} else if e := st.table(w.role).Get(w.key, w.version); e != nil {
		// Retention site: the table keeps a copy of the value, m.Data is a
		// view into the packet.
		st.table(w.role).Hold(e, m.Data)
		n.persistInstall(st, w.role.shard, e)
	}
	n.closeWant(w)
}

// gathered takes one block of a gather; with the last one in it decodes
// the missing block for its asker (the online decoding algorithm of
// Section 5.5), or meets the stripe want. Either way, with all k data
// columns in hand this node's parity block is set to their encode: that
// is the rebuild, and after a decode it restores the encode invariant
// even if a torn put had diverged the parity copies.
func (n *Node) gathered(g *gather, pos int, m *proto.FetchReply) {
	st := n.mg[g.mg]
	g.have[pos] = nil
	if m.Status == proto.StOK {
		// Retention site: the block waits for its stripe siblings.
		g.have[pos] = bytes.Clone(m.Data)
	}
	if len(g.have) < st.layout.K {
		return
	}
	n.gathers = slices.DeleteFunc(n.gathers, func(o *gather) bool { return o == g })
	maps.DeleteFunc(g.have, func(_ int, blk []byte) bool { return blk == nil })
	k := st.layout.K
	data := make(map[int][]byte, k) // logical block -> contents
	for pos, blk := range g.have {
		if pos < k {
			data[st.layout.BlockAt(pos, g.stripe)] = blk
		}
	}
	var decoded []byte
	if g.missing >= 0 {
		var err error
		if decoded, err = st.layout.Encoder().ReconstructShard(g.missing, g.have); err != nil {
			n.send(g.to, &proto.FetchReply{Req: g.req, Status: proto.StUnavailable})
			return
		}
		n.Stats.BlocksRecovered++
		n.Stats.BytesDecoded += uint64(k * len(decoded))
		data[st.layout.BlockAt(g.missing, g.stripe)] = decoded
	}
	blk, err := st.layout.RecoverParityBlock(st.parityIdx, g.stripe, data)
	if err == nil {
		st.parity.SetBlock(g.stripe, blk)
	}
	if g.missing >= 0 {
		n.send(g.to, &proto.FetchReply{Req: g.req, Status: proto.StOK, Data: decoded})
	} else if w := n.wants.byReq[g.req]; w != nil && err == nil {
		n.closeWant(w)
	} else if w != nil {
		n.askAgain(w)
	}
}
