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

	live map[ShardKey]shardIndex
	segs map[uint64]*segUse
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
// the top bit, and the check word of the entry's key and version.
type liveRec struct {
	at    recPos
	bits  uint32
	check uint32
}

// recCommitted is the flag in liveRec.bits: the entry has committed
// since its record was written. The other 31 bits hold the frame's
// size, which the WAL's 24-bit length keeps under 2^25.
const recCommitted = 1 << 31

func (l liveRec) size() int64     { return int64(l.bits &^ recCommitted) }
func (l liveRec) committed() bool { return l.bits&recCommitted != 0 }

// entryHash hashes a key and version in one pass, FNV-1a 64 for the
// index key and FNV-1a 32 for liveRec.check. Both are fixed and
// seedless, so a replay and a simulated run file each record where the
// node that wrote it did.
func entryHash(key string, ver proto.Version) (uint64, uint32) {
	h, c := uint64(14695981039346656037), uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
		c = (c ^ uint32(key[i])) * 16777619
	}
	for v, i := uint64(ver), 0; i < 8; v, i = v>>8, i+1 {
		h = (h ^ v&0xff) * 1099511628211
		c = (c ^ uint32(v&0xff)) * 16777619
	}
	return h, c
}

// shardIndex is one shard's live records, each filed under the hash of
// its entry's key and version: the paper names an entry by the two, and
// a version is unique to its key across memgests. An append or install
// replaces whatever record its entry had, whatever seq either carries
// (a coordinator can hand a seq or a version out again), and a commit or
// purge marker finds its entry the same way. The index holds neither
// keys nor pointers.
//
// The check word tells entries whose hashes meet apart. A marker whose
// check word differs names an entry that is gone (a merge left the
// marker behind) and is ignored; an append or install whose check word
// differs is a collision of two live entries, an error and not one
// entry. Among N live records of a shard the odds of a collision are at
// most N²/2^65, about 5·10⁻¹³ at 4096, and the check word misses one
// with a further chance of 2^-32.
type shardIndex map[uint64]liveRec

// find returns the live record of the entry key@ver.
func (x shardIndex) find(key string, ver proto.Version) (uint64, liveRec, bool) {
	h, c := entryHash(key, ver)
	l, ok := x[h]
	return h, l, ok && l.check == c
}

// errCollision is the error an append or install returns when its hash
// files another live entry of the shard.
var errCollision = errors.New("hashes as another live entry does")

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
// check; both are refused, not half-read. So is a log in which two live
// entries of a shard share an index hash (see shardIndex).
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
		live:  make(map[ShardKey]shardIndex),
		segs:  make(map[uint64]*segUse),
	}
	shards := make(map[ShardKey]*replayShard)
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
		if err := d.apply(r.kind, r.sk, &r.rec, seg, size); err != nil {
			return err
		}
		ek := entryKey{r.rec.Key, r.rec.Version}
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
func (d *Durable) apply(kind byte, sk ShardKey, rec *proto.MetaRecord, seg uint64, size int) error {
	at := d.landed(seg, size)
	x := d.live[sk]
	switch kind {
	case kAppend, kInstall:
		h, c := entryHash(rec.Key, rec.Version)
		old, held := x[h]
		if held && old.check != c {
			return fmt.Errorf("replog: %s@%d in memgest %d shard %d %w; remove the data directory and the node resyncs from its group",
				rec.Key, rec.Version, sk.Memgest, sk.Shard, errCollision)
		}
		if x == nil {
			x = make(shardIndex)
			d.live[sk] = x
		}
		if held {
			d.book(old, -1)
		}
		l := liveRec{at: at, bits: uint32(size), check: c}
		if kind == kInstall {
			l.bits |= recCommitted
		}
		x[h] = l
		d.book(l, 1)
	case kCommit:
		if h, l, ok := x.find(rec.Key, rec.Version); ok && !l.committed() {
			l.bits |= recCommitted
			x[h] = l
			d.stats.Unresolved--
		}
	case kPurge:
		if h, l, ok := x.find(rec.Key, rec.Version); ok {
			d.book(l, -1)
			delete(x, h)
		}
	case kReset:
		for _, l := range x {
			d.book(l, -1)
		}
		delete(d.live, sk)
	}
	return nil
}

// write appends a framed record of rec and applies it to the index.
func (d *Durable) write(kind byte, sk ShardKey, rec *proto.MetaRecord, frame []byte) error {
	seg, err := d.w.AppendFramed(frame)
	if err != nil {
		return err
	}
	return d.apply(kind, sk, rec, seg, len(frame))
}

// put writes an entry's full record: an append or an install.
func (d *Durable) put(kind byte, sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	return d.write(kind, sk, rec, d.encode(kind, sk, seq, rec, value, hasValue))
}

// mark writes a commit, purge or reset marker: key and version only.
func (d *Durable) mark(kind byte, sk ShardKey, seq proto.Seq, key string, ver proto.Version) error {
	rec := proto.MetaRecord{Key: key, Version: ver}
	return d.write(kind, sk, &rec, d.encode(kind, sk, seq, &rec, nil, false))
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
			_, l, ok := d.live[r.sk].find(r.rec.Key, r.rec.Version)
			if !ok || l.at != pos {
				return nil
			}
			// The copy is the record as read, its kind set to the entry's state.
			kind := byte(kAppend)
			if l.committed() {
				kind = kInstall
			}
			frame[wal.FrameHeader] = kind
			return d.write(kind, r.sk, &r.rec, frame)
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

// Holds reports whether the index holds a live record of key@ver in
// shard sk, and whether that entry has committed: the index as a state
// check compares it with the node's metadata tables.
func (d *Durable) Holds(sk ShardKey, key string, ver proto.Version) (committed, ok bool) {
	_, l, ok := d.live[sk].find(key, ver)
	return l.committed(), ok
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

// appendMetaRecord appends proto.MetaRecord in the log's own fixed
// layout, little-endian: [u16 keyLen][key][version u64][memgest u32]
// [flags][length u32][locBlock u32][locOff u32]. The wire encodes the
// record with varints and leaves out what its message implies; the log
// keeps every field at a fixed width, so its format does not follow it.
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
