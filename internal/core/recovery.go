package core

import (
	"bytes"
	"sort"

	"ring/internal/proto"
	"ring/internal/store"
)

// bgKind classifies background recovery work items.
type bgKind uint8

const (
	bgBlock  bgKind = iota + 1 // SRS coordinator: decode one logical block
	bgValue                    // Rep: fetch one value copy
	bgParity                   // SRS parity: rebuild one stripe's parity block
)

// bgTask is one queued background recovery item.
type bgTask struct {
	kind    bgKind
	memgest proto.MemgestID
	shard   uint32
	block   uint32 // bgBlock
	stripe  int    // bgParity
	key     string // bgValue
	version proto.Version
	replica bool // bgValue: install into the replica table, not coord
	retries int
}

const (
	maxBgInflight = 4
	maxRetries    = 16
)

// startMetaRecovery begins fetching the metadata hashtable of one
// memgest shard from the nodes that replicate it (step 5 of the
// Section 6.4 recovery sequence). since > 0 turns the fetch into a
// delta sync: the node recovered durable state up to that sequence
// and only needs what came after.
func (n *Node) startMetaRecovery(mgID proto.MemgestID, shard uint32, role recoveredRole, since proto.Seq) {
	mi := n.cfg.Memgest(mgID)
	if mi == nil {
		return
	}
	var peers []proto.NodeID
	switch role {
	case roleCoordinator:
		if mi.Scheme.Kind == proto.SchemeSRS {
			peers = parityNodes(mi)
		} else if mi.Scheme.R > 1 {
			peers = replicaSet(n.cfg, mi, shard)
		}
		// Rep(1,s): nothing replicates the shard; it restarts empty.
	case roleReplica, roleParity:
		// Redundancy copies recover from the authoritative coordinator.
		if int(shard) < len(n.cfg.Coords) {
			peers = []proto.NodeID{n.cfg.Coords[shard]}
		}
	}
	// Never fetch from ourselves.
	filtered := peers[:0:0]
	for _, p := range peers {
		if p != n.id {
			filtered = append(filtered, p)
		}
	}
	if len(filtered) == 0 {
		return
	}
	req := n.reqID()
	mr := &metaRecovery{memgest: mgID, shard: shard, role: role, since: since, waiting: make(map[proto.NodeID]bool)}
	for _, p := range filtered {
		mr.waiting[p] = true
		n.sendNode(p, &proto.MetaFetch{Req: req, Memgest: mgID, Shard: shard, Since: since})
	}
	mr.lastSent = n.now
	n.recovering[req] = mr
	n.serving = false
}

// pumpMetaRecoveries retries stalled metadata fetches and prunes peers
// that have been removed from the configuration (they died and were
// replaced); without this, a peer failing mid-recovery would wedge the
// recovering node in the non-serving state forever.
func (n *Node) pumpMetaRecoveries() {
	if len(n.recovering) == 0 {
		return
	}
	alive := make(map[proto.NodeID]bool)
	for _, id := range n.cfg.AllNodes() {
		alive[id] = true
	}
	// Iterate in request order: map order would vary run to run, and
	// replayability (ringchaos) requires every state transition and
	// message send to happen in identical order for identical seeds.
	reqs := make([]proto.ReqID, 0, len(n.recovering))
	for req := range n.recovering {
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, req := range reqs {
		mr := n.recovering[req]
		if n.now-mr.lastSent <= n.opts.FailAfter {
			continue
		}
		for _, p := range sortedWaiting(mr.waiting) {
			if !alive[p] {
				delete(mr.waiting, p)
			}
		}
		if len(mr.waiting) == 0 {
			delete(n.recovering, req)
			n.finishMetaRecovery(mr)
			if len(n.recovering) == 0 {
				n.serving = true
			}
			continue
		}
		mr.lastSent = n.now
		for _, p := range sortedWaiting(mr.waiting) {
			n.sendNode(p, &proto.MetaFetch{Req: req, Memgest: mr.memgest, Shard: mr.shard, Since: mr.since})
		}
	}
}

// sortedWaiting returns a recovery's outstanding peers in ID order, so
// retransmits go out deterministically.
func sortedWaiting(waiting map[proto.NodeID]bool) []proto.NodeID {
	ids := make([]proto.NodeID, 0, len(waiting))
	for p := range waiting {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (n *Node) handleMetaFetchReply(from string, m *proto.MetaFetchReply) {
	mr := n.recovering[m.Req]
	if mr == nil {
		return
	}
	id, ok := parseNodeAddr(from)
	if !ok || !mr.waiting[id] {
		return
	}
	delete(mr.waiting, id)
	if m.Status == proto.StOK {
		mr.replies = append(mr.replies, m)
	}
	if len(mr.waiting) > 0 {
		return
	}
	delete(n.recovering, m.Req)
	n.finishMetaRecovery(mr)
	if len(n.recovering) == 0 {
		n.serving = true
	}
}

// finishMetaRecovery merges the fetched metadata copies and installs
// them for the recovered role, then queues background data recovery.
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
func (n *Node) finishMetaRecovery(mr *metaRecovery) {
	st := n.mgFor(mr.memgest)
	if st == nil {
		return
	}
	n.Stats.MetaRecovs++

	type merged struct {
		rec   proto.MetaRecord
		count int
	}
	union := make(map[store.EntryKey]*merged)
	for _, rep := range mr.replies {
		for _, rec := range rep.Recs {
			ek := store.EntryKey{Key: rec.Key, Version: rec.Version}
			mg, ok := union[ek]
			if !ok {
				union[ek] = &merged{rec: rec, count: 1}
				continue
			}
			mg.count++
			if rec.Committed {
				mg.rec.Committed = true
			}
		}
	}
	// Install in (key, version) order: map iteration order is random
	// per run, and it leaks into the heap-extent reservation order, the
	// background-recovery queue, and ultimately the message schedule —
	// which must be a pure function of the seed for replay to work.
	keys := make([]store.EntryKey, 0, len(union))
	for ek := range union {
		keys = append(keys, ek)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })

	for _, ek := range keys {
		mg := union[ek]
		mg.rec.Committed = true
		n.Stats.BytesMetaInstalled += uint64(len(mg.rec.Key)) + 26
	}

	switch mr.role {
	case roleCoordinator:
		cs := st.coord[mr.shard]
		if cs == nil {
			return
		}
		// A durable node delta-synced: advance the sequence allocator
		// past everything the peers have seen, so re-allocated sequences
		// never collide with the previous life's.
		for _, rep := range mr.replies {
			cs.tracker.Advance(rep.Seq)
		}
		vol := n.volFor(mr.shard)
		for _, ek := range keys {
			mg := union[ek]
			if existing := cs.meta.Get(ek.Key, ek.Version); existing != nil {
				// Already installed from the durable stash: keep its value
				// and extent, just make sure it is committed.
				if !existing.Rec.Committed {
					existing.Rec.Committed = true
					n.persistInstall(st, mr.shard, existing)
				}
				continue
			}
			e := &store.Entry{Rec: mg.rec}
			if st.layout != nil {
				if err := cs.heap.Reserve(e.Extent()); err != nil {
					// Conflicting metadata (should not happen); skip.
					continue
				}
			}
			cs.meta.Put(e)
			vol.Add(mg.rec.Key, mg.rec.Version, mr.memgest)
			n.persistInstall(st, mr.shard, e)
		}
		// Queue background data recovery.
		if st.layout != nil {
			lo, hi := st.layout.NodeBlocks(int(mr.shard))
			for b := lo; b < hi; b++ {
				n.bgQueue = append(n.bgQueue, bgTask{kind: bgBlock, memgest: mr.memgest, shard: mr.shard, block: uint32(b)})
			}
		} else if st.info.Scheme.R > 1 {
			// The whole table, not just keys: a stash entry may lack its
			// bytes too. Records is sorted, like everything recovery
			// queues — the table is a Go map, and the order of these
			// fetches is the order of the messages that answer them.
			for _, rec := range cs.meta.Records() {
				if !cs.meta.Get(rec.Key, rec.Version).Held() {
					n.bgQueue = append(n.bgQueue, bgTask{kind: bgValue, memgest: mr.memgest, shard: mr.shard, key: rec.Key, version: rec.Version})
				}
			}
		}

	case roleReplica, roleParity:
		rt := st.rmeta[mr.shard]
		if rt == nil {
			return
		}
		for _, ek := range keys {
			e := rt.Get(ek.Key, ek.Version)
			if e == nil {
				e = &store.Entry{Rec: union[ek].rec}
				rt.Put(e)
				n.persistInstall(st, mr.shard, e)
			} else if !e.Rec.Committed {
				e.Rec.Committed = true
				n.persistInstall(st, mr.shard, e)
			}
			// A replica fetches the bytes it lacks entry by entry; parity
			// blocks are rebuilt once per stripe, not per shard, and
			// scheduleParityRebuild queued them already.
			if mr.role == roleReplica && !e.Held() {
				n.bgQueue = append(n.bgQueue, bgTask{kind: bgValue, memgest: mr.memgest, shard: mr.shard, key: ek.Key, version: ek.Version, replica: true})
			}
		}
	}
}

// scheduleParityRebuild queues a rebuild of every parity stripe block
// of a newly assigned parity node.
func (n *Node) scheduleParityRebuild(st *mgState) {
	for t := 0; t < st.layout.Stripes(); t++ {
		n.bgQueue = append(n.bgQueue, bgTask{kind: bgParity, memgest: st.info.ID, stripe: t})
	}
}

// recoveryTick pumps the background recovery queue and retries
// stalled metadata fetches.
func (n *Node) recoveryTick() {
	n.pumpMetaRecoveries()
	for n.bgInflight < maxBgInflight && len(n.bgQueue) > 0 {
		task := n.bgQueue[0]
		n.bgQueue = n.bgQueue[1:]
		n.issueBgTask(task)
	}
	n.Metrics.RecoveryBacklog.Set(int64(len(n.bgQueue) + n.bgInflight))
}

// requeue retries a failed background task, giving up after a bound.
func (n *Node) requeue(task bgTask) {
	task.retries++
	if task.retries > maxRetries {
		return
	}
	n.bgQueue = append(n.bgQueue, task)
}

func (n *Node) issueBgTask(task bgTask) {
	st := n.mgFor(task.memgest)
	if st == nil {
		return
	}
	switch task.kind {
	case bgBlock:
		cs := st.coord[task.shard]
		if cs == nil || cs.blockOK[task.block] {
			return
		}
		if cs.blockFetching[task.block] {
			return
		}
		cs.blockFetching[task.block] = true
		n.issueBlockRecover(st, cs, task)

	case bgValue:
		table := st.tableFor(task)
		if table == nil {
			return
		}
		if e := table.Get(task.key, task.version); e != nil && !e.Held() {
			n.issueValueFetch(st, task)
		}

	case bgParity:
		if st.parity == nil || st.layout == nil {
			return
		}
		n.issueParityRebuild(st, task)
	}
}

// issueBlockRecover asks a parity node to decode one lost block. The
// parity node is chosen round-robin by retry count so a dead parity
// does not wedge recovery.
func (n *Node) issueBlockRecover(st *mgState, cs *coordShard, task bgTask) {
	pns := parityNodes(&st.info)
	target := pns[task.retries%len(pns)]
	req := n.reqID()
	n.bgInflight++
	n.bgTasks0[req] = task
	n.sendNode(target, &proto.BlockRecover{Req: req, Memgest: task.memgest, Block: task.block})
}

// issueValueFetch asks a peer holding a copy for (key, version).
func (n *Node) issueValueFetch(st *mgState, task bgTask) {
	var target proto.NodeID
	if task.replica {
		// Replicas fetch from the coordinator.
		target = n.cfg.Coords[task.shard]
	} else {
		// Coordinators fetch from a replica, rotating on retries.
		rs := replicaSet(n.cfg, &st.info, task.shard)
		if len(rs) == 0 {
			return
		}
		target = rs[task.retries%len(rs)]
	}
	if target == n.id {
		return
	}
	req := n.reqID()
	n.bgInflight++
	n.bgTasks0[req] = task
	n.sendNode(target, &proto.DataFetch{Req: req, Memgest: task.memgest, Shard: task.shard, Key: task.key, Version: task.version})
}

// issueParityRebuild gathers the k data blocks of one stripe so this
// parity node can recompute its parity block.
func (n *Node) issueParityRebuild(st *mgState, task bgTask) {
	members := st.layout.StripeMembers(task.stripe)
	pr := &parityRebuild{memgest: task.memgest, stripe: task.stripe, have: make(map[int][]byte), task: task}
	for _, b := range members {
		owner := n.cfg.Coords[st.layout.DataNodeOf(b)]
		req := n.reqID()
		n.parityRebuilds[req] = pr
		pr.pending++
		n.sendNode(owner, &proto.BlockFetch{Req: req, Memgest: task.memgest, Block: uint32(b)})
	}
	if pr.pending > 0 {
		n.bgInflight++
	}
}

// parityRebuild tracks one stripe rebuild on a new parity node.
type parityRebuild struct {
	memgest proto.MemgestID
	stripe  int
	have    map[int][]byte
	pending int
	failed  bool
	task    bgTask
}

// handleBlockRecover runs on a parity node: gather the k-1 sibling
// data blocks of the lost block's stripe, add the local parity block,
// and decode (the online decoding algorithm of Section 5.5).
func (n *Node) handleBlockRecover(from string, m *proto.BlockRecover) {
	st := n.mgFor(m.Memgest)
	if st == nil || st.parity == nil || st.layout == nil || int(m.Block) >= st.layout.L {
		n.send(from, &proto.BlockRecoverReply{Req: m.Req, Status: proto.StNoMemgest, Block: m.Block})
		return
	}
	t := st.layout.StripeOffset(int(m.Block))
	targetPos := st.layout.StripePos(int(m.Block))
	br := &blockRecovery{
		requester: from, req: m.Req, memgest: m.Memgest, block: m.Block,
		have: map[int][]byte{
			st.layout.K + st.parityIdx: st.parity.Block(t),
		},
	}
	for _, b := range st.layout.StripeMembers(t) {
		if st.layout.StripePos(b) == targetPos {
			continue
		}
		owner := n.cfg.Coords[st.layout.DataNodeOf(b)]
		req := n.reqID()
		n.blockRecs[req] = br
		br.pending++
		n.sendNode(owner, &proto.BlockFetch{Req: req, Memgest: m.Memgest, Block: uint32(b)})
	}
	if br.pending == 0 {
		n.finishBlockRecovery(st, br)
	}
}

func (n *Node) handleBlockFetchReply(_ string, m *proto.BlockFetchReply) {
	// The reply may belong to a block recovery (parity master) or to a
	// parity rebuild (new parity node).
	if br, ok := n.blockRecs[m.Req]; ok {
		delete(n.blockRecs, m.Req)
		st := n.mgFor(br.memgest)
		if st == nil || st.layout == nil {
			return
		}
		br.pending--
		if m.Status == proto.StOK {
			// Retention site: the block waits for its stripe siblings.
			br.have[st.layout.StripePos(int(m.Block))] = bytes.Clone(m.Data)
		}
		if br.pending == 0 {
			n.finishBlockRecovery(st, br)
		}
		return
	}
	if pr, ok := n.parityRebuilds[m.Req]; ok {
		delete(n.parityRebuilds, m.Req)
		st := n.mgFor(pr.memgest)
		if st == nil || st.layout == nil {
			return
		}
		pr.pending--
		if m.Status == proto.StOK {
			// Retention site, as above.
			pr.have[st.layout.StripePos(int(m.Block))] = bytes.Clone(m.Data)
		} else {
			pr.failed = true
		}
		if pr.pending == 0 {
			n.bgInflight--
			if st.parity == nil {
				return // the role went while the stripe was gathered
			}
			if pr.failed || len(pr.have) < st.layout.K {
				n.requeue(pr.task)
				return
			}
			// Recompute this node's parity block from the k data
			// columns of the stripe.
			stripeData := make(map[int][]byte, st.layout.K)
			for pos, data := range pr.have {
				stripeData[st.layout.BlockAt(pos, pr.stripe)] = data
			}
			blk, err := st.layout.RecoverParityBlock(st.parityIdx, pr.stripe, stripeData)
			if err != nil {
				n.requeue(pr.task)
				return
			}
			st.parity.SetBlock(pr.stripe, blk)
		}
	}
}

// finishBlockRecovery decodes the lost block and replies; it also
// refreshes this parity node's own stripe block from the now-complete
// data columns, restoring the encode invariant even if a torn put had
// diverged the parity copies.
func (n *Node) finishBlockRecovery(st *mgState, br *blockRecovery) {
	targetPos := st.layout.StripePos(int(br.block))
	t := st.layout.StripeOffset(int(br.block))
	data, err := st.layout.Encoder().ReconstructShard(targetPos, br.have)
	if err != nil {
		n.send(br.requester, &proto.BlockRecoverReply{Req: br.req, Status: proto.StUnavailable, Block: br.block})
		return
	}
	n.Stats.BlocksRecovered++
	n.Stats.BytesDecoded += uint64(st.layout.K * len(data))
	// Scrub: recompute our own parity block from the full stripe, if
	// the role did not go while it was gathered.
	stripeData := make(map[int][]byte, st.layout.K)
	for pos, blk := range br.have {
		if pos < st.layout.K {
			stripeData[st.layout.BlockAt(pos, t)] = blk
		}
	}
	stripeData[int(br.block)] = data
	if len(stripeData) == st.layout.K && st.parity != nil {
		if blk, err := st.layout.RecoverParityBlock(st.parityIdx, t, stripeData); err == nil {
			st.parity.SetBlock(t, blk)
		}
	}
	n.send(br.requester, &proto.BlockRecoverReply{Req: br.req, Status: proto.StOK, Block: br.block, Data: data})
}

// tableFor returns the table a value fetch installs into, or nil when
// the role it was queued for has since gone.
func (st *mgState) tableFor(task bgTask) *store.MetaTable {
	if task.replica {
		return st.rmeta[task.shard]
	}
	if cs := st.coord[task.shard]; cs != nil {
		return cs.meta
	}
	return nil
}

// takeBgTask settles the outstanding block or value request a reply
// answers and returns its task with the memgest's state; the state is
// nil for a reply nobody waits for, or to a memgest since deleted.
func (n *Node) takeBgTask(req proto.ReqID) (bgTask, *mgState) {
	task, ok := n.bgTasks0[req]
	if !ok {
		return task, nil
	}
	delete(n.bgTasks0, req)
	n.bgInflight--
	return task, n.mgFor(task.memgest)
}

// handleBlockRecoverReply installs a recovered block on the
// coordinator and releases requests parked on it.
func (n *Node) handleBlockRecoverReply(_ string, m *proto.BlockRecoverReply) {
	task, st := n.takeBgTask(m.Req)
	if st == nil {
		return
	}
	cs := st.coord[task.shard]
	if cs == nil {
		return
	}
	delete(cs.blockFetching, m.Block)
	if m.Status != proto.StOK {
		n.requeue(task)
		return
	}
	if cs.blockOK[m.Block] {
		return
	}
	cs.heap.SetBlockData(m.Block, m.Data)
	cs.blockOK[m.Block] = true
	// Release requests parked on this block.
	waiters := cs.blockWaiters[m.Block]
	delete(cs.blockWaiters, m.Block)
	for _, w := range waiters {
		n.releaseWaiter(st, cs, w)
	}
}

// handleDataFetchReply installs a recovered value and releases parked
// requests.
func (n *Node) handleDataFetchReply(_ string, m *proto.DataFetchReply) {
	task, st := n.takeBgTask(m.Req)
	if st == nil {
		return
	}
	if m.Status != proto.StOK {
		n.requeue(task)
		return
	}
	table := st.tableFor(task)
	if table == nil {
		return
	}
	e := table.Get(task.key, task.version)
	if e == nil {
		return
	}
	// Retention site: the table keeps a copy of the value, m.Value is a
	// view into the packet.
	table.Hold(e, m.Value)
	n.persistInstall(st, task.shard, e)
	if task.replica {
		return
	}
	cs, ek := st.coord[task.shard], store.EntryKey{Key: task.key, Version: task.version}
	delete(cs.valueFetching, ek)
	waiters := cs.valueWaiters[ek]
	delete(cs.valueWaiters, ek)
	for _, w := range waiters {
		n.releaseWaiter(st, cs, w)
	}
}

// releaseWaiter resumes a request that was parked on data recovery.
func (n *Node) releaseWaiter(st *mgState, cs *coordShard, w blockWaiter) {
	if w.move != nil {
		n.admitMove(w.client, w.move)
		return
	}
	e := cs.meta.Get(w.key, w.version)
	if e == nil {
		n.send(w.client, &proto.GetReply{Req: w.req, Status: proto.StNotFound})
		return
	}
	n.sendValueReply(st, cs, e, w.client, w.req)
}

// parkOnBlockRecovery queues a request behind an SRS block decode and
// kicks an on-demand, high-priority recovery ("If the requested data
// is lost, it will be recovered with an on the fly recovery algorithm
// with high priority").
func (n *Node) parkOnBlockRecovery(st *mgState, cs *coordShard, block uint32, w blockWaiter) {
	cs.blockWaiters[block] = append(cs.blockWaiters[block], w)
	if cs.blockFetching[block] {
		return
	}
	cs.blockFetching[block] = true
	// On-demand recovery bypasses the background queue and its
	// in-flight limit.
	n.issueBlockRecover(st, cs, bgTask{kind: bgBlock, memgest: st.info.ID, shard: cs.shard, block: block})
}

// parkOnValueRecovery queues a request behind a Rep value fetch.
func (n *Node) parkOnValueRecovery(st *mgState, cs *coordShard, e *store.Entry, w blockWaiter) {
	ek := store.EntryKey{Key: e.Rec.Key, Version: e.Rec.Version}
	cs.valueWaiters[ek] = append(cs.valueWaiters[ek], w)
	if cs.valueFetching[ek] {
		return
	}
	cs.valueFetching[ek] = true
	if len(replicaSet(n.cfg, &st.info, cs.shard)) == 0 {
		n.send(w.client, &proto.GetReply{Req: w.req, Status: proto.StUnavailable})
		return
	}
	n.issueValueFetch(st, bgTask{kind: bgValue, memgest: st.info.ID, shard: cs.shard, key: ek.Key, version: ek.Version})
}
