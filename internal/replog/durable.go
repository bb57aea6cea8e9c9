package replog

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"

	"ring/internal/bitcask"
	"ring/internal/metrics"
	"ring/internal/proto"
	"ring/internal/wal"
)

// Durable persists a node's memgest state across crashes by pairing
// the two storage engines:
//
//   - the WAL (internal/wal) records every mutation in order — the
//     write-ahead append (metadata plus, for Rep memgests, the value)
//     the moment an entry enters a metadata table, then its commit,
//     purge, install or reset — and is the only file an acknowledgement
//     waits on: Sync is one fsync of its active segment;
//   - the Bitcask store (internal/bitcask) holds one record per
//     *committed* entry, keyed by (memgest, shard, version, key), and is
//     the checkpoint behind the log: it is written along with the WAL
//     but fsynced only by checkpoint, once per sealed WAL segment,
//     immediately before the segments it then covers are pruned.
//
// What a crash leaves is therefore "whatever Bitcask kept, plus a WAL
// suffix that holds every mutation Bitcask may be missing"; replaying
// that suffix in log order over Bitcask's entries is idempotent, so
// neither file's fsync is ordered against the other's.
//
// WAL segments are pruned prefix-only, up to the lowest segment still
// holding an append whose commit, purge or reset had not reached
// Bitcask at its last fsync — so pruning can never orphan a committed
// record, and never resurrects a purged version (mid-log gaps are
// impossible).
type Durable struct {
	w    *wal.WAL
	db   *bitcask.DB
	opts DurableOptions

	stash   map[ShardKey]*RecoveredShard
	damaged bool

	// unresolved maps each write-ahead append still awaiting its
	// commit/purge to the WAL segment holding it; the lowest of them is
	// where a checkpoint stops pruning.
	unresolved map[urKey]uint64
	// sealedSeen is the WAL's sealed-segment count at the last checkpoint.
	sealedSeen uint64

	lastSync time.Duration
	stats    Stats
	fsyncLat metrics.Histogram
	ckptLat  metrics.Histogram
}

type urKey struct {
	sk  ShardKey
	seq proto.Seq
}

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
	// FsyncNever leaves syncing to segment seals and Close.
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
	Policy   FsyncPolicy
	Interval time.Duration // FsyncInterval period (0 = 5ms)

	WALSegmentBytes  int
	DataSegmentBytes int
	// CompactDead triggers a Bitcask merge once this many superseded
	// records accumulate (0 = 1<<16).
	CompactDead int
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
	kCommit = 2 // commit marker: the entry moved to Bitcask
	kPurge  = 3 // version purged (GC or abort)
	kReset  = 4 // all prior records of the shard are void (role shed)
	// 5 and 6 were the move journal's window records, which recovery
	// never read: replay skips them in a data directory an older binary
	// wrote, and the numbers stay reserved.
	kMoveBegin = 5
	kMoveEnd   = 6
	// kInstall is an entry learned through recovery: an append that is
	// born committed. Bitcask gets the same entry, but only the WAL is
	// fsynced before the next acknowledgement.
	kInstall = 7
)

// replayEntry is an entry during OpenDurable; inDB marks one that is
// exactly what Bitcask holds, so normalization need not rewrite it.
type replayEntry struct {
	RecoveredEntry
	inDB bool
}

// replayShard is one shard's state during OpenDurable: Bitcask's
// entries first, then the WAL's records applied on top in log order.
type replayShard struct {
	entries    map[entryKey]*replayEntry
	unresolved map[proto.Seq]entryKey // appends with no commit/purge yet
	orphans    map[entryKey]bool      // commits whose entry is nowhere
	maxSeq     proto.Seq
}

func newReplayShard() *replayShard {
	return &replayShard{
		entries:    make(map[entryKey]*replayEntry),
		unresolved: make(map[proto.Seq]entryKey),
		orphans:    make(map[entryKey]bool),
	}
}

// OpenDurable opens (or creates) the store in fsys and replays it into
// the recovered stash: Bitcask's committed entries, then the WAL in log
// order on top. Recovery ends as a full checkpoint: Bitcask is made to
// hold exactly the committed entries and fsynced, the surviving
// uncommitted appends are compacted into a fresh WAL generation, and
// the old segments are dropped — so prune bookkeeping restarts exact
// and replay cost never accretes across restarts.
func OpenDurable(fsys wal.FS, opts DurableOptions) (_ *Durable, err error) {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Millisecond
	}
	if opts.CompactDead <= 0 {
		opts.CompactDead = 1 << 16
	}
	db, err := bitcask.Open(fsys, bitcask.Options{SegmentBytes: opts.DataSegmentBytes})
	if err != nil {
		return nil, err
	}
	d := &Durable{
		db:         db,
		opts:       opts,
		stash:      make(map[ShardKey]*RecoveredShard),
		unresolved: make(map[urKey]uint64),
	}
	// A failed open hands the caller nothing to close, so it closes what
	// it opened itself, whichever step failed.
	defer func() {
		if err != nil {
			d.abandon()
		}
	}()

	shards := make(map[ShardKey]*replayShard)
	shard := func(sk ShardKey) *replayShard {
		st, ok := shards[sk]
		if !ok {
			st = newReplayShard()
			shards[sk] = st
		}
		return st
	}

	// Phase 1: Bitcask — every committed entry it kept.
	var dbKeys []string
	err = db.Range(func(k string, v []byte) error {
		sk, ek, ok := decodeDBKey(k)
		e, ok2 := decodeEnvelope(v)
		if !ok || !ok2 {
			d.damaged = true
			return nil
		}
		e.Rec.Committed = true
		st := shard(sk)
		st.entries[ek] = &replayEntry{RecoveredEntry: e, inDB: true}
		st.maxSeq = max(st.maxSeq, e.Seq)
		dbKeys = append(dbKeys, k)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: the WAL on top, in log order. It holds every mutation
	// since the last checkpoint, so whatever Bitcask kept of them —
	// nothing, some, or all — the result is the same.
	d.w, err = wal.Open(fsys, wal.Options{SegmentBytes: opts.WALSegmentBytes}, func(_ uint64, payload []byte) error {
		r, ok := decodeWALRecord(payload)
		if !ok {
			d.damaged = true
			return nil
		}
		st := shard(r.sk)
		ek := entryKey{r.rec.Key, r.rec.Version}
		switch r.kind {
		case kAppend, kInstall:
			delete(st.orphans, ek)
			if old := st.entries[ek]; r.kind == kAppend && old != nil && old.Rec.Committed && old.Seq == r.seq {
				break // Bitcask kept this append's commit: it supersedes the write-ahead copy
			}
			e := &replayEntry{RecoveredEntry: RecoveredEntry{Rec: r.rec, Seq: r.seq, Value: r.value, HasValue: r.hasValue}}
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
		case kMoveBegin, kMoveEnd:
		case kReset:
			// Voids what Bitcask kept of the shard too, not only the log.
			*st = *newReplayShard()
			return nil
		default:
			d.damaged = true
			return nil
		}
		st.maxSeq = max(st.maxSeq, r.seq)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if d.w.Damaged() || db.Damaged() {
		d.damaged = true
	}

	// Phase 3: build the stash (committed entries only — an append that
	// never committed was never acknowledged, so dropping it is a legal
	// outcome of the crashed operation; it still lowers Since so the
	// group sync re-covers its range).
	skeys := make([]ShardKey, 0, len(shards))
	for sk := range shards {
		skeys = append(skeys, sk)
	}
	sort.Slice(skeys, func(i, j int) bool { return skeys[i].Less(skeys[j]) })
	type pendingAppend struct {
		sk ShardKey
		e  *replayEntry
	}
	var uncommitted []pendingAppend
	for _, sk := range skeys {
		st := shards[sk]
		if len(st.entries) == 0 && st.maxSeq == 0 {
			continue // reset, and nothing since
		}
		eks := make([]entryKey, 0, len(st.entries))
		for ek := range st.entries {
			eks = append(eks, ek)
		}
		sort.Slice(eks, func(i, j int) bool { return eks[i].less(eks[j]) })
		rs := &RecoveredShard{MaxSeq: st.maxSeq, Since: st.maxSeq}
		for _, ek := range eks {
			e := st.entries[ek]
			if !e.Rec.Committed {
				uncommitted = append(uncommitted, pendingAppend{sk, e})
				continue
			}
			rs.Entries = append(rs.Entries, e.RecoveredEntry)
			// Normalize on disk as we go: every committed entry lands in
			// Bitcask.
			if !e.inDB {
				if err = db.Put(encodeDBKey(sk, ek), encodeEnvelope(&e.RecoveredEntry)); err != nil {
					return nil, err
				}
			}
		}
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

	// Phase 4: finish the checkpoint. Bitcask drops what the WAL purged or
	// reset after Bitcask last heard of it and is fsynced; only then is
	// the WAL rewritten to hold exactly the surviving uncommitted appends.
	for _, key := range dbKeys {
		sk, ek, _ := decodeDBKey(key)
		if e := shards[sk].entries[ek]; e == nil || !e.Rec.Committed {
			if err = db.Delete(key); err != nil {
				return nil, err
			}
		}
	}
	if err = db.Sync(); err != nil {
		return nil, err
	}
	sort.Slice(uncommitted, func(i, j int) bool {
		a, b := uncommitted[i], uncommitted[j]
		if a.sk != b.sk {
			return a.sk.Less(b.sk)
		}
		return a.e.Seq < b.e.Seq
	})
	recs := make([][]byte, len(uncommitted))
	for i, p := range uncommitted {
		recs[i] = encodeWALRecord(kAppend, p.sk, p.e.Seq, &p.e.Rec, p.e.Value, p.e.HasValue)
	}
	segs, err := d.w.Compact(recs)
	if err != nil {
		return nil, err
	}
	for i, p := range uncommitted {
		d.unresolved[urKey{p.sk, p.e.Seq}] = segs[i]
	}
	return d, nil
}

// abandon closes both engines after a failed open.
//
//ring:durableok the open failed; its error is the one to surface
func (d *Durable) abandon() {
	if d.w != nil {
		d.w.Close()
	}
	d.db.Close()
}

// Recovered returns the replayed durable state, keyed by shard. The
// caller installs it into the node's memgest tables on the first
// config push and treats it as read-only afterwards.
func (d *Durable) Recovered() map[ShardKey]*RecoveredShard { return d.stash }

// Damaged reports whether recovery found evidence of lost durable
// bytes (every stash shard then carries Since == 0).
func (d *Durable) Damaged() bool { return d.damaged }

// journal appends one record to the WAL.
func (d *Durable) journal(kind byte, sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	_, err := d.w.AppendFramed(encodeWALRecord(kind, sk, seq, rec, value, hasValue))
	return err
}

// put writes a committed entry's Bitcask record.
func (d *Durable) put(sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	e := RecoveredEntry{Rec: *rec, Seq: seq, Value: value, HasValue: hasValue}
	e.Rec.Committed = true
	return d.db.Put(encodeDBKey(sk, entryKey{rec.Key, rec.Version}), encodeEnvelope(&e))
}

// Append persists a write-ahead append: the entry just added to a
// metadata table, before any ack references it. value rides along for
// Rep memgests (hasValue); SRS appends are metadata-only.
func (d *Durable) Append(sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	seg, err := d.w.AppendFramed(encodeWALRecord(kAppend, sk, seq, rec, value, hasValue))
	if err != nil {
		return err
	}
	d.unresolved[urKey{sk, seq}] = seg
	d.stats.Appends++
	return nil
}

// Commit persists an entry's commit: the full record goes to Bitcask
// and a slim marker to the WAL, resolving the matching append.
func (d *Durable) Commit(sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	if err := d.put(sk, seq, rec, value, hasValue); err != nil {
		return err
	}
	slim := proto.MetaRecord{Key: rec.Key, Version: rec.Version}
	if err := d.journal(kCommit, sk, seq, &slim, nil, false); err != nil {
		return err
	}
	delete(d.unresolved, urKey{sk, seq})
	return nil
}

// Install persists an entry learned through recovery (already
// committed group-wide). The WAL record is what makes it durable ahead
// of the next acknowledgement: without it a crash before the next
// checkpoint would lose the entry *below* a durable MaxSeq, where no
// delta sync would ever look for it again.
func (d *Durable) Install(sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) error {
	if err := d.put(sk, seq, rec, value, hasValue); err != nil {
		return err
	}
	return d.journal(kInstall, sk, seq, rec, value, hasValue)
}

// Purge removes a version (GC of superseded versions, or abort of an
// uncommitted append). seq is the purged entry's sequence when known.
func (d *Durable) Purge(sk ShardKey, seq proto.Seq, key string, ver proto.Version) error {
	if err := d.db.Delete(encodeDBKey(sk, entryKey{key, ver})); err != nil {
		return err
	}
	slim := proto.MetaRecord{Key: key, Version: ver}
	if err := d.journal(kPurge, sk, seq, &slim, nil, false); err != nil {
		return err
	}
	delete(d.unresolved, urKey{sk, seq})
	return nil
}

// Reset voids all durable state of a shard — the node shed the role,
// so replaying any of it after a crash would resurrect another
// node's past.
func (d *Durable) Reset(sk ShardKey) error {
	if _, err := d.db.DeletePrefix(string(encodeDBPrefix(sk))); err != nil {
		return err
	}
	if err := d.journal(kReset, sk, 0, &proto.MetaRecord{}, nil, false); err != nil {
		return err
	}
	for uk := range d.unresolved {
		if uk.sk == sk {
			delete(d.unresolved, uk)
		}
	}
	delete(d.stash, sk)
	return nil
}

// Dirty reports whether unsynced mutations exist. Every mutation
// writes a WAL record, so the WAL alone answers.
func (d *Durable) Dirty() bool { return d.w.Dirty() }

// MaybeSync applies the fsync policy on behalf of a batch that owes an
// acknowledgement (acks of them, for the per-sync statistics) or a
// tick; now is the node's event clock. The hosting runner must not
// emit the batch's outputs if this fails: an un-fsyncable disk means
// acks can no longer promise durability, so the node crash-stops
// instead (fsyncgate semantics).
func (d *Durable) MaybeSync(now time.Duration, acks int) error {
	switch {
	case !d.Dirty() || d.opts.Policy == FsyncNever:
		return nil
	case d.opts.Policy == FsyncInterval && now-d.lastSync < d.opts.Interval:
		return nil
	}
	d.lastSync = now
	d.stats.SyncAcks += uint64(acks)
	return d.Sync()
}

// Sync is the group commit: one fsync, of the WAL's active segment.
// When a segment sealed since the last checkpoint (or Bitcask is due a
// merge), the checkpoint follows it.
func (d *Durable) Sync() error {
	start := time.Now()
	if err := d.w.Sync(); err != nil {
		return err
	}
	d.fsyncLat.Observe(time.Since(start))
	ws := d.w.Stats()
	d.stats.Syncs++
	d.stats.SyncRecords, d.stats.AppendsSynced = ws.Appends, d.stats.Appends
	if ws.Sealed != d.sealedSeen || d.db.Dead() >= d.opts.CompactDead {
		return d.checkpoint()
	}
	return nil
}

// checkpoint makes Bitcask catch up with the WAL and drops the WAL
// prefix it then covers: fsync Bitcask (merging first once enough dead
// records piled up), then prune the sealed segments below the lowest
// one holding an append that fsync left unresolved. The only Bitcask
// fsync outside OpenDurable; callers have just synced the WAL, so
// Bitcask is never made durable ahead of the log.
func (d *Durable) checkpoint() error {
	start := time.Now()
	d.sealedSeen = d.w.Stats().Sealed
	var err error
	if d.db.Dead() >= d.opts.CompactDead {
		err = d.db.Merge()
	} else {
		err = d.db.Sync()
	}
	if err != nil {
		return err
	}
	floor := d.w.ActiveSegment()
	for _, seg := range d.unresolved {
		floor = min(floor, seg)
	}
	if err := d.w.PruneTo(floor); err != nil {
		return err
	}
	d.stats.Checkpoints++
	d.ckptLat.Observe(time.Since(start))
	return nil
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
	// Checkpoints counts Bitcask catch-ups (fsync + WAL prune).
	Checkpoints   uint64               `json:"checkpoints"`
	Checkpoint    metrics.HistSnapshot `json:"checkpoint_latency"`
	BitcaskFsyncs uint64               `json:"bitcask_fsyncs"`
	LiveKeys      int                  `json:"bitcask_live_records"`
	DeadRecords   int                  `json:"bitcask_dead_records"`
	Unresolved    int                  `json:"unresolved_appends"`
	WALSegments   int                  `json:"wal_segments"`
	DataFiles     int                  `json:"bitcask_files"`
	// Failed is the node's sticky persist-error flag (set by core: the
	// node crash-stops once a write or fsync failed).
	Failed bool `json:"failed"`
}

// DurableStats reports the store's counters.
func (d *Durable) DurableStats() Stats {
	s, ws := d.stats, d.w.Stats()
	s.Fsync, s.Checkpoint = d.fsyncLat.Snapshot(), d.ckptLat.Snapshot()
	s.WALBytes, s.WALSealed, s.WALPruned = ws.Bytes, ws.Sealed, ws.Pruned
	s.BitcaskFsyncs = d.db.Syncs()
	s.LiveKeys, s.DeadRecords = d.db.Len(), d.db.Dead()
	s.Unresolved = len(d.unresolved)
	s.WALSegments = len(d.w.SealedSegments()) + 1
	s.DataFiles = len(d.db.Files())
	return s
}

// Close checkpoints fully — WAL, then Bitcask, then the prune — and
// closes every file, so a cleanly stopped store reopens with nothing to
// replay but its unresolved appends.
func (d *Durable) Close() error {
	err := d.Sync()
	if err == nil {
		err = d.checkpoint()
	}
	if werr := d.w.Close(); err == nil {
		err = werr
	}
	if derr := d.db.Close(); err == nil {
		err = derr
	}
	return err
}

// --- encodings -------------------------------------------------------

// Bitcask keys: [mg u32][shard u32][version u64][key bytes], all
// little-endian. The 8-byte (mg, shard) prefix is the unit of Reset.
func encodeDBPrefix(sk ShardKey) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(sk.Memgest))
	binary.LittleEndian.PutUint32(b[4:], sk.Shard)
	return b[:]
}

func encodeDBKey(sk ShardKey, ek entryKey) string {
	b := make([]byte, 0, 16+len(ek.key))
	b = append(b, encodeDBPrefix(sk)...)
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(ek.ver))
	b = append(b, v[:]...)
	b = append(b, ek.key...)
	return string(b)
}

func decodeDBKey(s string) (ShardKey, entryKey, bool) {
	if len(s) < 16 {
		return ShardKey{}, entryKey{}, false
	}
	b := []byte(s)
	sk := ShardKey{
		Memgest: proto.MemgestID(binary.LittleEndian.Uint32(b[0:])),
		Shard:   binary.LittleEndian.Uint32(b[4:]),
	}
	ek := entryKey{
		ver: proto.Version(binary.LittleEndian.Uint64(b[8:])),
		key: string(b[16:]),
	}
	return sk, ek, true
}

// Bitcask envelope: [seq u64][metaRecord][hasValue u8][value].
func encodeEnvelope(e *RecoveredEntry) []byte {
	b := make([]byte, 0, 40+len(e.Rec.Key)+len(e.Value))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Seq))
	b = appendMetaRecord(b, &e.Rec)
	if e.HasValue {
		b = append(b, 1)
		b = append(b, e.Value...)
	} else {
		b = append(b, 0)
	}
	return b
}

func decodeEnvelope(b []byte) (RecoveredEntry, bool) {
	var e RecoveredEntry
	if len(b) < 9 {
		return e, false
	}
	e.Seq = proto.Seq(binary.LittleEndian.Uint64(b))
	rec, rest, ok := readMetaRecord(b[8:])
	if !ok || len(rest) < 1 {
		return e, false
	}
	e.Rec = rec
	if rest[0] == 1 {
		e.HasValue = true
		e.Value = append([]byte(nil), rest[1:]...)
	} else if len(rest) != 1 {
		return e, false
	}
	return e, true
}

// WAL record: [kind u8][mg u32][shard u32][seq u64][metaRecord]
// [hasValue u8][value]; kCommit/kPurge carry a slim record (key and
// version only), kReset an empty one. The record is returned behind
// wal.FrameHeader spare bytes, ready for AppendFramed.
func encodeWALRecord(kind byte, sk ShardKey, seq proto.Seq, rec *proto.MetaRecord, value []byte, hasValue bool) []byte {
	b := make([]byte, wal.FrameHeader, wal.FrameHeader+48+len(rec.Key)+len(value))
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
		r.value = append([]byte(nil), rest[1:]...)
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
