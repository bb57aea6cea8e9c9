package replog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/wal"
)

var testSK = ShardKey{Memgest: 1, Shard: 0}

func openDurable(t *testing.T, fs wal.FS, opts DurableOptions) *Durable {
	t.Helper()
	d, err := OpenDurable(fs, opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

func rec(key string, ver proto.Version) *proto.MetaRecord {
	return &proto.MetaRecord{Key: key, Version: ver, Memgest: testSK.Memgest, Length: 4}
}

func val(key string, ver proto.Version) []byte {
	return []byte(fmt.Sprintf("%s@%d", key, ver))
}

func mustAppend(t *testing.T, d *Durable, sk ShardKey, seq proto.Seq, key string, ver proto.Version) {
	t.Helper()
	if err := d.Append(sk, seq, rec(key, ver), val(key, ver), true); err != nil {
		t.Fatalf("Append %s@%d: %v", key, ver, err)
	}
}

func mustCommit(t *testing.T, d *Durable, sk ShardKey, seq proto.Seq, key string, ver proto.Version) {
	t.Helper()
	if err := d.Commit(sk, seq, rec(key, ver), val(key, ver), true); err != nil {
		t.Fatalf("Commit %s@%d: %v", key, ver, err)
	}
}

func shardEntry(t *testing.T, rs *RecoveredShard, key string, ver proto.Version) *RecoveredEntry {
	t.Helper()
	for i := range rs.Entries {
		e := &rs.Entries[i]
		if e.Rec.Key == key && e.Rec.Version == ver {
			return e
		}
	}
	return nil
}

func TestCommitSurvivesCrash(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	mustAppend(t, d, testSK, 1, "a", 7)
	mustCommit(t, d, testSK, 1, "a", 7)
	mustAppend(t, d, testSK, 2, "b", 3)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// kill -9: no Close.
	fs.Crash(rand.New(rand.NewSource(1)))

	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	rs := d2.Recovered()[testSK]
	if rs == nil {
		t.Fatal("shard lost")
	}
	e := shardEntry(t, rs, "a", 7)
	if e == nil || !e.Rec.Committed || !e.HasValue || !bytes.Equal(e.Value, val("a", 7)) {
		t.Fatalf("committed entry after crash = %+v", e)
	}
	// The uncommitted append must not surface as an entry, but must
	// lower the delta floor below its sequence.
	if shardEntry(t, rs, "b", 3) != nil {
		t.Fatal("uncommitted append surfaced as a recovered entry")
	}
	if rs.Since != 1 {
		t.Fatalf("Since = %d, want 1 (below the unresolved append)", rs.Since)
	}
	if rs.MaxSeq != 2 {
		t.Fatalf("MaxSeq = %d, want 2", rs.MaxSeq)
	}
}

func TestUnsyncedCommitLostCleanly(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncNever})
	mustAppend(t, d, testSK, 1, "a", 1)
	mustCommit(t, d, testSK, 1, "a", 1)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, testSK, 2, "b", 1)
	mustCommit(t, d, testSK, 2, "b", 1)
	// Crash with the second commit unsynced: it may vanish, but replay
	// must stay consistent and Since must not claim to cover seq 2.
	fs.Crash(rand.New(rand.NewSource(42)))

	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncNever})
	if d2.Damaged() {
		t.Fatal("torn unsynced tail must not be damage")
	}
	rs := d2.Recovered()[testSK]
	if rs == nil {
		t.Fatal("shard lost")
	}
	if e := shardEntry(t, rs, "a", 1); e == nil || !e.Rec.Committed {
		t.Fatalf("synced commit lost: %+v", e)
	}
	if shardEntry(t, rs, "b", 1) == nil && rs.Since >= 2 {
		t.Fatalf("entry b lost but Since = %d claims coverage of seq 2", rs.Since)
	}
}

// TestTruncateNeverOrphansCommitted is the satellite case: write-ahead
// appends spread over several rotated WAL segments, a subset commits,
// and the commit-boundary truncation (prefix prune at sync) runs. No
// committed record may be orphaned — every commit must survive reopen
// even though the segments holding their appends are gone.
func TestTruncateNeverOrphansCommitted(t *testing.T) {
	fs := wal.NewMemFS()
	opts := DurableOptions{
		Policy:          FsyncAlways,
		WALSegmentBytes: 256, // force rotation every few records
	}
	d := openDurable(t, fs, opts)

	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, d, testSK, proto.Seq(i+1), fmt.Sprintf("k%02d", i), 1)
	}
	// Commit a prefix: seqs 1..25. The tail 26..40 stays write-ahead.
	for i := 0; i < 25; i++ {
		mustCommit(t, d, testSK, proto.Seq(i+1), fmt.Sprintf("k%02d", i), 1)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	st := d.DurableStats()
	if st.Unresolved != 15 {
		t.Fatalf("Unresolved = %d, want 15", st.Unresolved)
	}
	// Rotation must actually have happened for the test to mean anything.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("no meaningful segment rotation: %v", names)
	}

	// kill -9, reopen: all 25 commits present, all 15 appends covered by Since.
	fs.Crash(rand.New(rand.NewSource(9)))
	d2 := openDurable(t, fs, opts)
	rs := d2.Recovered()[testSK]
	if rs == nil {
		t.Fatal("shard lost")
	}
	for i := 0; i < 25; i++ {
		key := fmt.Sprintf("k%02d", i)
		e := shardEntry(t, rs, key, 1)
		if e == nil || !e.Rec.Committed {
			t.Fatalf("committed %s orphaned by truncation (entry=%+v)", key, e)
		}
		if !bytes.Equal(e.Value, val(key, 1)) {
			t.Fatalf("committed %s value corrupted: %q", key, e.Value)
		}
	}
	if rs.Since != 25 {
		t.Fatalf("Since = %d, want 25 (first unresolved append is seq 26)", rs.Since)
	}
	if rs.MaxSeq != 40 {
		t.Fatalf("MaxSeq = %d, want 40", rs.MaxSeq)
	}

	// Second life: commit the stragglers, prune again, crash again.
	for i := 25; i < n; i++ {
		mustCommit(t, d2, testSK, proto.Seq(i+1), fmt.Sprintf("k%02d", i), 1)
	}
	if err := d2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d2.DurableStats().Unresolved; got != 0 {
		t.Fatalf("Unresolved after full commit = %d", got)
	}
	fs.Crash(rand.New(rand.NewSource(10)))
	d3 := openDurable(t, fs, opts)
	rs3 := d3.Recovered()[testSK]
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%02d", i)
		if e := shardEntry(t, rs3, key, 1); e == nil || !e.Rec.Committed {
			t.Fatalf("committed %s lost in second life", key)
		}
	}
	if rs3.Since != 40 {
		t.Fatalf("Since = %d, want 40 (everything resolved)", rs3.Since)
	}
}

func TestPruneShrinksWAL(t *testing.T) {
	fs := wal.NewMemFS()
	opts := DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 256}
	d := openDurable(t, fs, opts)
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			seq := proto.Seq(round*8 + i + 1)
			key := fmt.Sprintf("r%dk%d", round, i)
			mustAppend(t, d, testSK, seq, key, 1)
			mustCommit(t, d, testSK, seq, key, 1)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Everything resolved: the sealed prefix must be pruned away.
	if got := d.DurableStats().WALSegments; got > 3 {
		t.Fatalf("WAL kept %d segments despite full resolution", got)
	}
}

func TestPurgeAndAbort(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	mustAppend(t, d, testSK, 1, "k", 1)
	mustCommit(t, d, testSK, 1, "k", 1)
	mustAppend(t, d, testSK, 2, "k", 2)
	mustCommit(t, d, testSK, 2, "k", 2)
	// GC the superseded version, and abort an uncommitted append.
	if err := d.Purge(testSK, 1, "k", 1); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, testSK, 3, "dead", 1)
	if err := d.Purge(testSK, 3, "dead", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash(rand.New(rand.NewSource(2)))

	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	rs := d2.Recovered()[testSK]
	if shardEntry(t, rs, "k", 1) != nil {
		t.Fatal("purged version resurrected")
	}
	if e := shardEntry(t, rs, "k", 2); e == nil || !e.Rec.Committed {
		t.Fatal("surviving version lost")
	}
	if shardEntry(t, rs, "dead", 1) != nil {
		t.Fatal("aborted append resurrected")
	}
	if rs.Since != 3 {
		t.Fatalf("Since = %d, want 3 (abort resolves the append)", rs.Since)
	}
}

func TestResetFencesShard(t *testing.T) {
	fs := wal.NewMemFS()
	other := ShardKey{Memgest: 2, Shard: 1}
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	mustAppend(t, d, testSK, 1, "mine", 1)
	mustCommit(t, d, testSK, 1, "mine", 1)
	if err := d.Append(other, 5, rec("keep", 1), val("keep", 1), true); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(other, 5, rec("keep", 1), val("keep", 1), true); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, testSK, 2, "pending", 1)
	// Role shed: everything of testSK is void, including the pending append.
	if err := d.Reset(testSK); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash(rand.New(rand.NewSource(3)))

	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	if rs := d2.Recovered()[testSK]; rs != nil && len(rs.Entries) > 0 {
		t.Fatalf("reset shard replayed %d entries", len(rs.Entries))
	}
	ors := d2.Recovered()[other]
	if e := shardEntry(t, ors, "keep", 1); e == nil || !e.Rec.Committed {
		t.Fatal("reset bled into another shard")
	}
	// Writes in a new life after the reset must replay normally.
	mustAppend(t, d2, testSK, 1, "newlife", 1)
	mustCommit(t, d2, testSK, 1, "newlife", 1)
	if err := d2.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash(rand.New(rand.NewSource(4)))
	d3 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	if e := shardEntry(t, d3.Recovered()[testSK], "newlife", 1); e == nil || !e.Rec.Committed {
		t.Fatal("post-reset commit lost")
	}
}

// TestRetiredMoveRecordsSkipped: a data directory written by a binary
// that still journaled move windows replays as if the window records
// were not there — not as damage, which would cost a full resync.
func TestRetiredMoveRecordsSkipped(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{})
	for _, kind := range []byte{kMoveBegin, kMoveEnd} {
		if err := d.journal(kind, testSK, 0, rec("k", 2), nil, false); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(t, d, testSK, 1, "k", 2)
	mustCommit(t, d, testSK, 1, "k", 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openDurable(t, fs, DurableOptions{})
	if rs := d.Recovered()[testSK]; d.Damaged() || rs == nil || shardEntry(t, rs, "k", 2) == nil || rs.Since != 1 {
		t.Fatalf("damaged=%v shard=%+v", d.Damaged(), rs)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInstallPersists(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	// Recovery installs: committed group-wide, seq unknown locally.
	if err := d.Install(testSK, 0, rec("inst", 4), nil, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(testSK, 0, rec("instv", 2), val("instv", 2), true); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash(rand.New(rand.NewSource(5)))

	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	rs := d2.Recovered()[testSK]
	if e := shardEntry(t, rs, "inst", 4); e == nil || !e.Rec.Committed || e.HasValue {
		t.Fatalf("metadata-only install = %+v", e)
	}
	if e := shardEntry(t, rs, "instv", 2); e == nil || !e.HasValue || !bytes.Equal(e.Value, val("instv", 2)) {
		t.Fatalf("valued install = %+v", e)
	}
}

func TestCorruptionForcesFullResync(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	for i := 0; i < 6; i++ {
		seq := proto.Seq(i + 1)
		key := fmt.Sprintf("k%d", i)
		mustAppend(t, d, testSK, seq, key, 1)
		mustCommit(t, d, testSK, seq, key, 1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !fs.CorruptWAL(rand.New(rand.NewSource(6))) {
		t.Fatal("CorruptWAL found nothing to flip")
	}
	d2, err := OpenDurable(fs, DurableOptions{Policy: FsyncAlways})
	if err != nil {
		t.Fatalf("open over corruption must recover, got %v", err)
	}
	if !d2.Damaged() {
		t.Fatal("bit flip not reported as damage")
	}
	for _, rs := range d2.Recovered() {
		if rs.Since != 0 {
			t.Fatalf("damaged store advertised Since = %d, want 0", rs.Since)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"never", FsyncNever}} {
		p, err := ParseFsyncPolicy(tc.in)
		if err != nil || p != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, p, err)
		}
		if p.String() != tc.in {
			t.Fatalf("String() = %q, want %q", p.String(), tc.in)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}

	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncInterval, Interval: 5 * time.Millisecond})
	base := fs.Syncs()
	mustAppend(t, d, testSK, 1, "a", 1)
	if err := d.MaybeSync(1*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if fs.Syncs() != base {
		t.Fatal("interval policy synced before the interval elapsed")
	}
	if err := d.MaybeSync(6*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if fs.Syncs() == base {
		t.Fatal("interval policy never synced")
	}

	dn := openDurable(t, wal.NewMemFS(), DurableOptions{Policy: FsyncNever})
	mustAppend(t, dn, testSK, 1, "a", 1)
	if err := dn.MaybeSync(time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	if dn.DurableStats().Syncs != 0 {
		t.Fatal("never policy synced")
	}
}

func TestFsyncErrorSurfaces(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	mustAppend(t, d, testSK, 1, "a", 1)
	boom := errors.New("fsyncgate")
	fs.FailSyncs(boom)
	if err := d.MaybeSync(0, 1); !errors.Is(err, boom) {
		t.Fatalf("MaybeSync over failing disk = %v, want %v", err, boom)
	}
}

func TestBitcaskMergeTriggered(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways, CompactDead: 8, DataSegmentBytes: 512})
	for i := 0; i < 32; i++ {
		seq := proto.Seq(i + 1)
		mustAppend(t, d, testSK, seq, "hot", proto.Version(i+1))
		mustCommit(t, d, testSK, seq, "hot", proto.Version(i+1))
		if i > 0 {
			if err := d.Purge(testSK, proto.Seq(i), "hot", proto.Version(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if dead := d.DurableStats(); dead.DataFiles > 4 {
		t.Fatalf("merge never triggered: %d data files, %d live keys", dead.DataFiles, dead.LiveKeys)
	}
	fs.Crash(rand.New(rand.NewSource(8)))
	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	rs := d2.Recovered()[testSK]
	if e := shardEntry(t, rs, "hot", 32); e == nil || !e.Rec.Committed {
		t.Fatal("live version lost across merge + crash")
	}
	if len(rs.Entries) != 1 {
		t.Fatalf("%d entries survived, want 1 (rest purged)", len(rs.Entries))
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	// Crashing immediately after a recovery (normalization rewrote the
	// WAL and Bitcask) must replay to the identical state.
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	for i := 0; i < 10; i++ {
		seq := proto.Seq(i + 1)
		key := fmt.Sprintf("k%d", i)
		mustAppend(t, d, testSK, seq, key, 1)
		if i%2 == 0 {
			mustCommit(t, d, testSK, seq, key, 1)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash(rand.New(rand.NewSource(12)))

	snap := func(d *Durable) string {
		rs := d.Recovered()[testSK]
		var b bytes.Buffer
		fmt.Fprintf(&b, "since=%d max=%d\n", rs.Since, rs.MaxSeq)
		for _, e := range rs.Entries {
			fmt.Fprintf(&b, "%s@%d c=%v v=%q seq=%d\n", e.Rec.Key, e.Rec.Version, e.Rec.Committed, e.Value, e.Seq)
		}
		return b.String()
	}
	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	first := snap(d2)
	// kill -9 right after recovery, before any new traffic.
	fs.Crash(rand.New(rand.NewSource(13)))
	d3 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	if second := snap(d3); second != first {
		t.Fatalf("recovery not idempotent:\nfirst:\n%ssecond:\n%s", first, second)
	}
}

func TestTrackerAdvance(t *testing.T) {
	tr := NewTracker()
	tr.Advance(10)
	if got := tr.Next(); got != 11 {
		t.Fatalf("Next after Advance(10) = %d", got)
	}
	tr.Advance(5) // must never move backwards
	if got := tr.Next(); got != 12 {
		t.Fatalf("Next after stale Advance = %d", got)
	}
}

func TestReadMetaRecordTruncated(t *testing.T) {
	// Regression: the bounds check was 4 bytes short, so a payload cut
	// inside the trailing LocBlock/LocOff fields panicked instead of
	// returning ok=false — turning corruption that slipped past the CRC
	// (or a cross-version record) into a recovery crash loop.
	full := appendMetaRecord(nil, &proto.MetaRecord{
		Key: "key", Version: 7, Memgest: 3, Committed: true,
		Length: 4, LocBlock: 9, LocOff: 11,
	})
	for cut := 1; cut <= len(full); cut++ {
		if _, _, ok := readMetaRecord(full[:len(full)-cut]); ok {
			t.Fatalf("meta record with %d bytes cut off parsed ok", cut)
		}
	}
	m, rest, ok := readMetaRecord(full)
	if !ok || len(rest) != 0 || m.Key != "key" || m.Version != 7 ||
		!m.Committed || m.Length != 4 || m.LocBlock != 9 || m.LocOff != 11 {
		t.Fatalf("full meta record = %+v ok=%v rest=%d", m, ok, len(rest))
	}
}
