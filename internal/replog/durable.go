package replog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/wal"
)

// Durable persists a node's memgest state across crashes in one
// write-ahead log (internal/wal), which is the store: every mutation
// appends its record — the write-ahead append (metadata plus, for Rep
// memgests, the value) the moment an entry enters a metadata table,
// then its commit, purge, install or reset — and Sync is one fsync of
// the active segment. Replaying the log in order rebuilds every entry.
//
// An in-memory index names each entry's live record: the append or
// install that carries it. Everything else in a sealed segment is dead
// — a superseded or purged entry, a marker whose effect the index
// already holds — and a merge drops it once the sealed segments hold
// more dead bytes than live ones.
type Durable struct {
	w    *wal.WAL
	opts DurableOptions

	stash   map[ShardKey]*RecoveredShard
	damaged bool

	live map[ShardKey]*shardIndex
	segs map[uint64]*segUse
	// replaying is set while OpenDurable replays the log: every open
	// append is then named by its key (see shardIndex.named).
	replaying bool
	// tail is where the next record lands if the WAL keeps the segment.
	tail recPos
	// sealedSeen is the WAL's sealed-segment count at the last merge check.
	sealedSeen uint64
	// frame is the scratch every record is encoded into and written from.
	frame []byte

	lastSync time.Duration
	stats    Stats
	fsyncLat metrics.Histogram
	mergeLat metrics.Histogram
}

// recPos names one record: its segment in the high 32 bits, its
// ordinal there in the low 32. A log seals a segment every
// SegmentBytes, so 2^32 of them is a petabyte-scale history at 1 MiB.
type recPos uint64

func makeRecPos(seg uint64, n uint32) recPos { return recPos(seg<<32 | uint64(n)) }

func (p recPos) seg() uint64 { return uint64(p >> 32) }

// liveRec is an index entry, 16 bytes with no pointer: where the
// entry's live record is, its framed size with the committed flag in
// the top bit, and a fingerprint of the entry's key and version.
type liveRec struct {
	at   recPos
	bits uint32
	fp   uint32
}

// recCommitted is the flag in liveRec.bits: the entry has committed
// since its record was written. The other 31 bits hold the frame's
// size, which the WAL's 24-bit length keeps under 2^25.
const recCommitted = 1 << 31

func (l liveRec) size() int64     { return int64(l.bits &^ recCommitted) }
func (l liveRec) committed() bool { return l.bits&recCommitted != 0 }

// fingerprint hashes a key and version (FNV-1a) for liveRec.fp.
func fingerprint(key string, ver proto.Version) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	for v, i := uint64(ver), 0; i < 8; v, i = v>>8, i+1 {
		h = (h ^ uint32(v&0xff)) * 16777619
	}
	return h
}

// shardIndex is one shard's live records, filed by the seq that names
// each entry.
//
// A seq names an entry within a shard: the coordinator allocates a
// shard's seqs once each, above every seq a peer or its own log has seen
// (Tracker.Advance on recovery and on rejoin), a redundancy node takes
// them from the coordinator's RepAppend and ParityUpdate, and RepCommit
// and ParityAck name an entry by nothing else. So commits, purges and a
// merge's copies find an entry by its seq, and the index holds neither
// keys nor pointers. Each record keeps its entry's fingerprint, so that
// a seq another entry holds is not taken for this one's.
//
// Some entries cannot be found by their seq, and named holds them by
// key and version, filed under a seq of the index's own (from
// unseqBase up, which no allocator reaches) unless said otherwise:
//   - a bare record, an install given seq 0 because recovery learned the
//     entry from a MetaFetchReply, whose records carry none;
//   - an entry whose seq another entry already holds: a coordinator
//     that restarts can hand a seq out again (durable chaos seed 186
//     does);
//   - an append an earlier life of the node left open, filed under its
//     seq. Recovery does not put it back in a metadata table, so what
//     later purges or installs it names it with seq 0. Replay names every
//     open append as it meets it, since it cannot tell where one life
//     ended.
//
// named is empty on a node that never recovered anything, and while it
// names an entry every record about that key and version goes there.
// What the index cannot see is an entry a table holds under one seq
// appended again under another, when the coordinator allocates its
// version again (ROADMAP item 4(b)): the redundancy node that holds it
// says so with Forget. And two entries that share a seq and a
// fingerprint (one in 2^32 of the seqs handed out again) are taken for
// one.
type shardIndex struct {
	recs  map[proto.Seq]liveRec
	named map[entryKey]proto.Seq
	// unseq is the last seq the index gave an entry of its own.
	unseq proto.Seq
}

// unseqBase is where the seqs the index gives entries start.
const unseqBase = proto.Seq(1) << 63

// lookup returns the seq x files the entry ek under, given the seq a
// record of it carries, and whether x holds it: a name wins, then the
// seq if the record filed there is the entry's. A marker a merge left
// behind names an entry that is gone, and must not touch another that
// holds its seq now.
func (x *shardIndex) lookup(seq proto.Seq, ek entryKey) (proto.Seq, bool) {
	if s, ok := x.named[ek]; ok {
		return s, true
	}
	l, ok := x.recs[seq]
	return seq, ok && l.fp == fingerprint(ek.key, ek.ver)
}

// segUse is what one segment holds: framed bytes in all, and of them
// the bytes of live records.
type segUse struct{ bytes, live int64 }

// FsyncPolicy selects when group commit actually fsyncs.
type FsyncPolicy uint8

const (
	// FsyncAlways syncs before every acknowledgement: no reply or ack
	// leaves the node until the state it acknowledges is fsynced. The
	// only policy under which a crash cannot lose acknowledged writes
	// locally.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per interval of the node's
	// event clock; a crash loses at most one interval of acked writes
	// (the group's other copies still hold them).
	FsyncInterval
	// FsyncNever leaves syncing to segment seals, merges and Close.
	FsyncNever
)

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("replog: unknown fsync policy %q (want always, interval or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", uint8(p))
}

// DurableOptions configures a Durable store.
type DurableOptions struct {
	Policy          FsyncPolicy
	Interval        time.Duration // FsyncInterval period (0 = 5ms)
	WALSegmentBytes int
}

// ShardKey addresses one shard of one memgest in the durable store.
type ShardKey struct {
	Memgest proto.MemgestID
	Shard   uint32
}

// Less orders shard keys by (memgest, shard): the order everything
// that must replay identically walks them in.
func (a ShardKey) Less(b ShardKey) bool {
	if a.Memgest != b.Memgest {
		return a.Memgest < b.Memgest
	}
	return a.Shard < b.Shard
}

// RecoveredEntry is one committed entry replayed from disk.
type RecoveredEntry struct {
	Rec proto.MetaRecord
	Seq proto.Seq
	// Value is the persisted value bytes when HasValue (Rep memgests);
	// SRS memgests persist metadata only and re-decode block data from
	// the parity group.
	Value    []byte
	HasValue bool
}

// RecoveredShard is the durable state of one shard: every committed
// entry, the highest sequence this node ever saw for the shard, and
// the delta floor for resyncing with the group.
type RecoveredShard struct {
	Entries []RecoveredEntry // sorted by (key, version)
	MaxSeq  proto.Seq
	// Since is the sequence the group sync can start from: peers only
	// need to send records with Seq > Since. 0 forces a full transfer
	// (fresh store, unresolved gaps, or detected corruption).
	Since proto.Seq
}

type entryKey struct {
	key string
	ver proto.Version
}

func (a entryKey) less(b entryKey) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.ver < b.ver
}

// WAL record kinds.
const (
	kAppend = 1 // write-ahead append: full record (+ value for Rep)
	kCommit = 2 // commit marker
	kPurge  = 3 // version purged (GC or abort)
	kReset  = 4 // all prior records of the shard are void (role shed)
	// kInstall is an entry that is committed when written: one learned
	// through recovery, or a merge's copy of a committed entry.
	kInstall = 7
)

// replayShard is one shard's state while OpenDurable replays the log.
type replayShard struct {
	entries    map[entryKey]*RecoveredEntry
	unresolved map[proto.Seq]entryKey // appends with no commit/purge yet
	orphans    map[entryKey]bool      // commits whose entry is nowhere
	maxSeq     proto.Seq
}

func newReplayShard() *replayShard {
	return &replayShard{
		entries:    make(map[entryKey]*RecoveredEntry),
		unresolved: make(map[proto.Seq]entryKey),
		orphans:    make(map[entryKey]bool),
	}
}

// OpenDurable opens (or creates) the store in fsys and replays the log
// once, in order, building two things from the records where they lie:
// the recovered stash and the live-record index, which books each
// record exactly as an append at runtime does. It leaves the log as it
// found it — the only write is wal.Open's truncation of a torn tail —
// and the merges that run as segments seal keep replay cost bounded.
//
// A directory holding Bitcask files ("bc-*") was written by an older
// binary whose log no longer holds every committed entry, and one whose
// segments are in the older WAL format has frames without a length
// check; both are refused, not half-read.
func OpenDurable(fsys wal.FS, opts DurableOptions) (*Durable, error) {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Millisecond
	}
	names, err := fsys.List()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if strings.HasPrefix(name, "bc-") {
			return nil, fmt.Errorf("replog: %s was written by an older ringd that kept committed entries outside the log; remove the data directory and the node resyncs from its group", name)
		}
	}
	d := &Durable{
		opts:  opts,
		stash: make(map[ShardKey]*RecoveredShard),
		live:  make(map[ShardKey]*shardIndex),
		segs:  make(map[uint64]*segUse),
	}
	shards := make(map[ShardKey]*replayShard)
	d.replaying = true
	d.w, err = wal.Open(fsys, wal.Options{SegmentBytes: opts.WALSegmentBytes}, func(seg uint64, payload []byte) error {
		size := wal.FrameHeader + len(payload)
		r, ok := decodeWALRecord(payload)
		if !ok {
			d.landed(seg, size) // it still takes its ordinal
			d.damaged = true
			return nil
		}
		st := shards[r.sk]
		if st == nil {
			st = newReplayShard()
			shards[r.sk] = st
		}
		ek := entryKey{r.rec.Key, r.rec.Version}
		if e := st.entries[ek]; (r.kind == kAppend || r.kind == kInstall) && e != nil && e.Seq != 0 && r.seq != 0 && e.Seq != r.seq {
			// The node held the entry under e.Seq when it took this record.
			d.Forget(r.sk, e.Seq, r.rec.Key, r.rec.Version)
		}
		d.apply(r.kind, r.sk, r.seq, &r.rec, seg, size)
		switch r.kind {
		case kAppend, kInstall:
			delete(st.orphans, ek)
			e := &RecoveredEntry{Rec: r.rec, Seq: r.seq, Value: append([]byte(nil), r.value...), HasValue: r.hasValue}
			e.Rec.Committed = r.kind == kInstall
			st.entries[ek] = e
			if r.kind == kAppend {
				st.unresolved[r.seq] = ek
			}
		case kCommit:
			if e := st.entries[ek]; e != nil {
				e.Rec.Committed = true
			} else {
				st.orphans[ek] = true
			}
			delete(st.unresolved, r.seq)
		case kPurge:
			delete(st.entries, ek)
			delete(st.orphans, ek)
			delete(st.unresolved, r.seq)
		case kReset:
			*st = *newReplayShard()
			return nil
		default:
			d.damaged = true
			return nil
		}
		st.maxSeq = max(st.maxSeq, r.seq)
		return nil
	})
	d.replaying = false
	if errors.Is(err, wal.ErrOldFormat) {
		return nil, fmt.Errorf("replog: %w, which an older ringd wrote; remove the data directory and the node resyncs from its group", err)
	}
	if err != nil {
		return nil, err
	}
	d.damaged = d.damaged || d.w.Damaged()
	for sk, st := range shards {
		if len(st.entries) == 0 && st.maxSeq == 0 {
			continue // reset, and nothing since
		}
		rs := &RecoveredShard{MaxSeq: st.maxSeq, Since: st.maxSeq, Entries: make([]RecoveredEntry, 0, len(st.entries))}
		for _, e := range st.entries {
			// An append that never committed was never acknowledged, so it
			// stays out of the stash (dropping it is a legal outcome of the
			// crashed operation); it stays in the log and the index, and it
			// lowers Since so the group sync re-covers its range.
			if e.Rec.Committed {
				rs.Entries = append(rs.Entries, *e)
			}
		}
		slices.SortFunc(rs.Entries, func(a, b RecoveredEntry) int {
			return cmp.Or(strings.Compare(a.Rec.Key, b.Rec.Key), cmp.Compare(a.Rec.Version, b.Rec.Version))
		})
		for seq := range st.unresolved {
			rs.Since = min(rs.Since, seq-1)
		}
		// A commit marker whose entry is nowhere means durable state was
		// lost; only a full transfer is safe.
		if len(st.orphans) > 0 || d.damaged {
			rs.Since = 0
		}
		d.stash[sk] = rs
	}
	return d, nil
}

// Recovered returns the replayed durable state, keyed by shard. The
// caller installs it into the node's memgest tables on the first
// config push and treats it as read-only afterwards.
func (d *Durable) Recovered() map[ShardKey]*RecoveredShard { return d.stash }

// Damaged reports whether recovery found evidence of lost durable
// bytes (every stash shard then carries Since == 0).
func (d *Durable) Damaged() bool { return d.damaged }

// landed books a framed record of size bytes that the WAL put in seg
// and returns its position.
func (d *Durable) landed(seg uint64, size int) recPos {
	if seg != d.tail.seg() {
		d.tail = makeRecPos(seg, 0)
		d.segs[seg] = &segUse{}
	}
	at := d.tail
	d.tail++
	d.segs[seg].bytes += int64(size)
	return at
}

// book adds (sign 1) or removes (sign -1) an index entry's share of the
// counts.
func (d *Durable) book(l liveRec, sign int) {
	d.segs[l.at.seg()].live += int64(sign) * l.size()
	d.stats.LiveBytes += int64(sign) * l.size()
	d.stats.LiveRecords += sign
	if !l.committed() {
		d.stats.Unresolved += sign
	}
}

// apply books a record of size bytes in seg — one just appended, or one
// replay meets where it lies — into the index: an append or install
// becomes its entry's live record, a commit marks it committed, a purge
// or reset drops what it names. Any other kind only takes its ordinal.
func (d *Durable) apply(kind byte, sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, seg uint64, size int) {
	at := d.landed(seg, size)
	x := d.live[sk]
	if x == nil {
		if kind != kAppend && kind != kInstall {
			return
		}
		x = &shardIndex{recs: make(map[proto.Seq]liveRec)}
		d.live[sk] = x
	}
	ek := entryKey{rec.Key, rec.Version}
	switch kind {
	case kAppend, kInstall:
		fp := fingerprint(rec.Key, rec.Version)
		s, named := x.named[ek]
		wasNamed := named
		if named && seq != s && (seq != 0 || s < unseqBase) {
			// Its seq names the entry now, or a bare record takes the place
			// of an open one: file it afresh.
			d.drop(x, s)
			delete(x.named, ek)
			named = false
		}
		if !named {
			s = seq
			if l, ok := x.recs[seq]; seq == 0 || ok && l.fp != fp {
				x.unseq++
				s = unseqBase + x.unseq
			}
		}
		if old, ok := x.recs[s]; ok {
			d.book(old, -1)
		}
		l := liveRec{at: at, bits: uint32(size), fp: fp}
		if kind == kInstall {
			l.bits |= recCommitted
		}
		x.recs[s] = l
		d.book(l, 1)
		switch {
		case s >= unseqBase || !l.committed() && (wasNamed || d.replaying):
			if named {
				break
			}
			if x.named == nil {
				x.named = make(map[entryKey]proto.Seq)
			}
			if !d.replaying {
				ek.key = strings.Clone(ek.key) // rec.Key may be a view into a table's key chunk
			}
			x.named[ek] = s
		case named:
			delete(x.named, ek) // committed under its seq: whoever names it again knows it
		}
	case kCommit:
		s, ok := x.lookup(seq, ek)
		if l := x.recs[s]; ok && !l.committed() {
			l.bits |= recCommitted
			x.recs[s] = l
			d.stats.Unresolved--
			if s < unseqBase {
				delete(x.named, ek) // open no more, and its seq finds it
			}
		}
	case kPurge:
		d.forget(x, seq, ek)
	case kReset:
		for _, l := range x.recs {
			d.book(l, -1)
		}
		delete(d.live, sk)
	}
}

// forget drops the entry ek, named seq by a record, from x.
func (d *Durable) forget(x *shardIndex, seq proto.Seq, ek entryKey) {
	if s, ok := x.lookup(seq, ek); ok {
		d.drop(x, s)
		delete(x.named, ek)
	}
}

// drop removes the record filed under s, if any, from x.
func (d *Durable) drop(x *shardIndex, s proto.Seq) {
	if l, ok := x.recs[s]; ok {
		d.book(l, -1)
		delete(x.recs, s)
	}
}

// find returns the live record of the entry a record read back from the
// log names.
func (x *shardIndex) find(seq proto.Seq, rec *proto.MetaRecord) (liveRec, bool) {
	if x == nil {
		return liveRec{}, false
	}
	s, ok := x.lookup(seq, entryKey{rec.Key, rec.Version})
	return x.recs[s], ok
}

// write appends a framed record of rec and applies it to the index.
func (d *Durable) write(kind byte, sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, frame []byte) error {
	seg, err := d.w.AppendFramed(frame)
	if err == nil {
		d.apply(kind, sk, seq, rec, seg, len(frame))
	}
	return err
}

// put writes an entry's full record: an append or an install.
func (d *Durable) put(kind byte, sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	return d.write(kind, sk, seq, rec, d.encode(kind, sk, seq, rec, value, hasValue))
}

// mark writes a commit, purge or reset marker: key and version only.
func (d *Durable) mark(kind byte, sk ShardKey, seq proto.Seq, key string, ver proto.Version) error {
	rec := proto.MetaRecord{Key: key, Version: ver}
	return d.write(kind, sk, seq, &rec, d.encode(kind, sk, seq, &rec, nil, false))
}

// Append persists a write-ahead append: the entry just added to a
// metadata table, before any ack references it. value rides along for
// Rep memgests (hasValue); SRS appends are metadata-only.
func (d *Durable) Append(sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	if err := d.put(kAppend, sk, seq, rec, value, hasValue); err != nil {
		return err
	}
	d.stats.Appends++
	return nil
}

// Forget drops the entry key@ver, which a table holds under seq in
// shard sk, from the index, writing nothing. A redundancy node calls it
// when an append is about to replace that entry with one of the same
// key and version under another seq (a version the coordinator
// allocated again): the append supersedes its record, and replay, which
// finds the key and version already there, forgets it the same way.
func (d *Durable) Forget(sk ShardKey, seq proto.Seq, key string, ver proto.Version) {
	if x := d.live[sk]; x != nil {
		d.forget(x, seq, entryKey{key, ver})
	}
}

// Commit persists an entry's commit as a marker naming its key and
// version; the append carries the rest, so value and hasValue, which
// mirror Append's, are not written.
func (d *Durable) Commit(sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, _ []byte, _ bool) error {
	return d.mark(kCommit, sk, seq, rec.Key, rec.Version)
}

// Install persists an entry learned through recovery (already
// committed group-wide).
func (d *Durable) Install(sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	return d.put(kInstall, sk, seq, rec, value, hasValue)
}

// Purge removes a version (GC of superseded versions, or abort of an
// uncommitted append). seq is the purged entry's sequence when known.
func (d *Durable) Purge(sk ShardKey, seq proto.Seq, key string, ver proto.Version) error {
	return d.mark(kPurge, sk, seq, key, ver)
}

// Reset voids all durable state of a shard — the node shed the role,
// so replaying any of it after a crash would resurrect another
// node's past.
func (d *Durable) Reset(sk ShardKey) error {
	if err := d.mark(kReset, sk, 0, "", 0); err != nil {
		return err
	}
	delete(d.stash, sk)
	return nil
}

// MaybeSync applies the fsync policy on behalf of a batch that owes an
// acknowledgement (acks of them, for the per-sync statistics) or a
// tick; now is the node's event clock. Whatever the policy, a segment
// sealed since the last call is then a reason to consider a merge. The
// hosting runner must not emit the batch's outputs if this fails: an
// un-fsyncable disk means acks can no longer promise durability, so
// the node crash-stops instead (fsyncgate semantics).
func (d *Durable) MaybeSync(now time.Duration, acks int) error {
	switch {
	case !d.w.Dirty() || d.opts.Policy == FsyncNever:
	case d.opts.Policy == FsyncInterval && now-d.lastSync < d.opts.Interval:
	default:
		d.lastSync = now
		d.stats.SyncAcks += uint64(acks)
		if err := d.sync(); err != nil {
			return err
		}
	}
	return d.maybeMerge()
}

// Sync is the group commit, one fsync of the WAL's active segment,
// followed by a merge when one is due.
func (d *Durable) Sync() error {
	if err := d.sync(); err != nil {
		return err
	}
	return d.maybeMerge()
}

func (d *Durable) sync() error {
	start := time.Now()
	if err := d.w.Sync(); err != nil {
		return err
	}
	d.fsyncLat.Observe(time.Since(start))
	d.stats.Syncs++
	d.stats.SyncRecords, d.stats.AppendsSynced = d.w.Stats().Appends, d.stats.Appends
	return nil
}

// maybeMerge merges once a segment has sealed since the last check and
// the sealed segments then hold more dead bytes than live ones: a merge
// copies at most what it frees, and the log stays within about twice
// the live bytes plus a segment.
func (d *Durable) maybeMerge() error {
	sealed := d.w.Stats().Sealed
	if sealed == d.sealedSeen {
		return nil
	}
	d.sealedSeen = sealed
	var bytes, live int64
	for _, seg := range d.w.SealedSegments() {
		if u := d.segs[seg]; u != nil {
			bytes, live = bytes+u.bytes, live+u.live
		}
	}
	if bytes-live <= live {
		return nil
	}
	return d.merge()
}

// merge reads the sealed segments oldest first, one at a time, and
// re-appends each record the index names as live in its current state
// — kInstall once committed, kAppend while not. It fsyncs the copies
// and only then removes the segments it read. Every marker older than a
// copy is reflected in it, and a marker about an entry that is gone is
// harmless on replay, so a crash at any step replays to the same state.
// It is the only code that re-appends a record or removes a segment.
func (d *Durable) merge() error {
	start := time.Now()
	end := d.w.ActiveSegment()
	var buf []byte // one segment's bytes at a time
	for _, seg := range d.w.SealedSegments() {
		at := makeRecPos(seg, 0)
		var err error
		buf, err = d.w.ReadSegment(seg, buf, func(frame []byte) error {
			pos := at
			at++
			r, ok := decodeWALRecord(frame[wal.FrameHeader:])
			if !ok {
				return nil // nothing live fails to decode: replay indexes no such record
			}
			l, ok := d.live[r.sk].find(r.seq, &r.rec)
			if !ok || l.at != pos {
				return nil
			}
			// The copy is the record as read, its kind set to the entry's state.
			kind := byte(kAppend)
			if l.committed() {
				kind = kInstall
			}
			frame[wal.FrameHeader] = kind
			return d.write(kind, r.sk, r.seq, &r.rec, frame)
		})
		if err != nil {
			return err
		}
		delete(d.segs, seg) // every live record in it has moved
	}
	if err := d.w.Sync(); err != nil {
		return err
	}
	if err := d.w.PruneTo(end); err != nil {
		return err
	}
	d.sealedSeen = d.w.Stats().Sealed
	d.stats.Merges++
	d.mergeLat.Observe(time.Since(start))
	return nil
}

// Live calls fn for each live record in the index, in no order: its
// shard, the seq the index files it under (0 for one filed under a seq
// of its own: bare, or named a seq another entry holds) and whether its
// entry has committed. It is the index as a state check compares it
// with the node's metadata tables.
func (d *Durable) Live(fn func(sk ShardKey, seq proto.Seq, committed bool)) {
	for sk, x := range d.live {
		for s, l := range x.recs {
			if s >= unseqBase {
				s = 0
			}
			fn(sk, s, l.committed())
		}
	}
}

// Stats is the durable tier's instrumentation: a point-in-time copy for
// /debug/ringvars, `ringctl stats` and tests.
type Stats struct {
	// Appends counts write-ahead appends; AppendsSynced those of them a
	// Sync has made durable (each is then free to be acknowledged).
	Appends       uint64 `json:"appends"`
	AppendsSynced uint64 `json:"appends_synced"`
	// Syncs counts group commits (one WAL fsync each), SyncRecords the
	// WAL records and SyncAcks the acknowledgements they released.
	Syncs       uint64               `json:"wal_fsyncs"`
	SyncRecords uint64               `json:"sync_records"`
	SyncAcks    uint64               `json:"sync_acks"`
	Fsync       metrics.HistSnapshot `json:"wal_fsync_latency"`
	WALBytes    uint64               `json:"wal_bytes"`
	WALSealed   uint64               `json:"wal_segments_sealed"`
	WALPruned   uint64               `json:"wal_segments_pruned"`
	// Merges counts merges (live records copied forward, the sealed
	// segments they came from removed) and Merge times them.
	Merges uint64               `json:"merges"`
	Merge  metrics.HistSnapshot `json:"merge_latency"`
	// LiveRecords is one per entry the store holds, LiveBytes their
	// framed size, and Unresolved those not yet committed.
	LiveRecords int   `json:"live_records"`
	LiveBytes   int64 `json:"live_bytes"`
	Unresolved  int   `json:"unresolved_appends"`
	WALSegments int   `json:"wal_segments"`
	// Failed is the node's sticky persist-error flag (set by core: the
	// node crash-stops once a write or fsync failed).
	Failed bool `json:"failed"`
}

// DurableStats reports the store's counters.
func (d *Durable) DurableStats() Stats {
	s, ws := d.stats, d.w.Stats()
	s.Fsync, s.Merge = d.fsyncLat.Snapshot(), d.mergeLat.Snapshot()
	s.WALBytes, s.WALSealed, s.WALPruned = ws.Bytes, ws.Sealed, ws.Pruned
	s.WALSegments = len(d.w.SealedSegments()) + 1
	return s
}

// Close syncs and closes the log; the next open replays it as it is.
func (d *Durable) Close() error {
	err := d.Sync()
	if werr := d.w.Close(); err == nil {
		err = werr
	}
	return err
}

// --- encodings -------------------------------------------------------

// maxScratch bounds the frame a Durable keeps, as the WAL bounds its
// own: a larger record gets a buffer of its own, used once.
const maxScratch = 64 << 10

// encode builds a record behind wal.FrameHeader spare bytes in the
// Durable's scratch frame, ready for AppendFramed, which copies it into
// the file: the frame is free again once the record is written.
func (d *Durable) encode(kind byte, sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) []byte {
	f := slices.Grow(d.frame[:0], wal.FrameHeader+48+len(rec.Key)+len(value))[:wal.FrameHeader]
	f = appendWALRecord(f, kind, sk, seq, rec, value, hasValue)
	if cap(f) <= maxScratch {
		d.frame = f
	}
	return f
}

// WAL record: [kind u8][mg u32][shard u32][seq u64][metaRecord]
// [hasValue u8][value]; kCommit/kPurge carry a slim record (key and
// version only), kReset an empty one. appendWALRecord appends it to b.
func appendWALRecord(b []byte, kind byte, sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) []byte {
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(sk.Memgest))
	b = binary.LittleEndian.AppendUint32(b, sk.Shard)
	b = binary.LittleEndian.AppendUint64(b, uint64(seq))
	b = appendMetaRecord(b, rec)
	if hasValue {
		b = append(b, 1)
		b = append(b, value...)
	} else {
		b = append(b, 0)
	}
	return b
}

type walRecord struct {
	kind     byte
	sk       ShardKey
	seq      proto.Seq
	rec      proto.MetaRecord
	value    []byte
	hasValue bool
}

// decodeWALRecord decodes a record; its value is a view into b.
func decodeWALRecord(b []byte) (walRecord, bool) {
	var r walRecord
	if len(b) < 17 {
		return r, false
	}
	r.kind = b[0]
	r.sk.Memgest = proto.MemgestID(binary.LittleEndian.Uint32(b[1:]))
	r.sk.Shard = binary.LittleEndian.Uint32(b[5:])
	r.seq = proto.Seq(binary.LittleEndian.Uint64(b[9:]))
	rec, rest, ok := readMetaRecord(b[17:])
	if !ok || len(rest) < 1 {
		return r, false
	}
	r.rec = rec
	if rest[0] == 1 {
		r.hasValue = true
		r.value = rest[1:]
	} else if len(rest) != 1 {
		return r, false
	}
	return r, true
}

// appendMetaRecord mirrors the wire encoding of proto.MetaRecord
// ([u16 keyLen][key][version u64][memgest u32][flags][length u32]
// [locBlock u32][locOff u32]) without going through a proto writer.
func appendMetaRecord(b []byte, m *proto.MetaRecord) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Key)))
	b = append(b, m.Key...)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Version))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Memgest))
	var flags byte
	if m.Committed {
		flags |= 1
	}
	if m.Tombstone {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, m.Length)
	b = binary.LittleEndian.AppendUint32(b, m.LocBlock)
	b = binary.LittleEndian.AppendUint32(b, m.LocOff)
	return b
}

func readMetaRecord(b []byte) (proto.MetaRecord, []byte, bool) {
	var m proto.MetaRecord
	if len(b) < 2 {
		return m, nil, false
	}
	klen := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	// 25 fixed bytes follow the key: version 8 + memgest 4 + flags 1 +
	// length 4 + locBlock 4 + locOff 4.
	if len(b) < klen+25 {
		return m, nil, false
	}
	m.Key = string(b[:klen])
	b = b[klen:]
	m.Version = proto.Version(binary.LittleEndian.Uint64(b))
	m.Memgest = proto.MemgestID(binary.LittleEndian.Uint32(b[8:]))
	flags := b[12]
	m.Committed = flags&1 != 0
	m.Tombstone = flags&2 != 0
	m.Length = binary.LittleEndian.Uint32(b[13:])
	m.LocBlock = binary.LittleEndian.Uint32(b[17:])
	m.LocOff = binary.LittleEndian.Uint32(b[21:])
	return m, b[25:], true
}
