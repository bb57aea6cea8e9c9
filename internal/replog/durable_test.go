package replog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/testutil"
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

// Overwrites leave dead records behind — superseded versions, their
// purges, commit markers — and merges drop them: the log stays near
// its live bytes.
func TestPruneShrinksWAL(t *testing.T) {
	fs := wal.NewMemFS()
	opts := DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 256}
	d := openDurable(t, fs, opts)
	for i := 0; i < 80; i++ {
		seq, key := proto.Seq(i+1), fmt.Sprintf("k%d", i%8)
		mustAppend(t, d, testSK, seq, key, proto.Version(i+1))
		mustCommit(t, d, testSK, seq, key, proto.Version(i+1))
		if i >= 8 {
			if err := d.Purge(testSK, seq-8, key, proto.Version(i-7)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := d.DurableStats()
	if st.Merges == 0 || st.WALPruned == 0 || st.LiveRecords != 8 {
		t.Fatalf("after 80 overwrites of 8 keys: %+v", st)
	}
	// Sealed bytes are at most twice the live ones after a merge check,
	// and a segment is at most 256 bytes plus one record.
	if limit := 2*st.LiveBytes/256 + 3; int64(st.WALSegments) > limit {
		t.Fatalf("WAL kept %d segments for %d live bytes", st.WALSegments, st.LiveBytes)
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

// A merge copies the live version of a hot key forward and drops the
// rest, and a crash after it replays exactly that version.
func TestMergeKeepsTheLiveVersion(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 512})
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
	if st := d.DurableStats(); st.Merges == 0 || st.WALSegments > 4 || st.LiveRecords != 1 {
		t.Fatalf("merge never triggered: %+v", st)
	}
	fs.Crash(rand.New(rand.NewSource(8)))
	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	rs := d2.Recovered()[testSK]
	if e := shardEntry(t, rs, "hot", 32); e == nil || !e.Rec.Committed || !bytes.Equal(e.Value, val("hot", 32)) {
		t.Fatal("live version lost across merge + crash")
	}
	if len(rs.Entries) != 1 {
		t.Fatalf("%d entries survived, want 1 (rest purged)", len(rs.Entries))
	}
}

// The index files entries by seq, and the durable chaos run breaks the
// two ways that could fool it: a coordinator that lost its log's tail
// hands seq 2 out again for another version of the key, and one that
// allocates a version again sends it under a new seq to a node that
// holds it (which says so with Forget). The first keeps both entries,
// the second the newer copy alone: so the node's index, replay's and,
// through a merge and a power cut, the log.
func TestReusedSeqAndVersionSurviveMerge(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	mustAppend(t, d, testSK, 2, "k", 8)
	mustCommit(t, d, testSK, 2, "k", 8)
	mustAppend(t, d, testSK, 2, "k", 7)
	mustCommit(t, d, testSK, 2, "k", 7)
	mustAppend(t, d, testSK, 3, "v", 1)
	mustCommit(t, d, testSK, 3, "v", 1)
	d.Forget(testSK, 3, "v", 1)
	if err := d.Append(testSK, 9, rec("v", 1), []byte("newer"), true); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d, testSK, 9, "v", 1)
	for _, what := range []string{"the node", "replay"} {
		if st := d.DurableStats(); st.LiveRecords != 3 || st.Unresolved != 0 {
			t.Fatalf("%s indexed %d records (%d open), want k@8, k@7 and v@1", what, st.LiveRecords, st.Unresolved)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d = openDurable(t, fs, DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 256})
	}
	mustAppend(t, d, testSK, 10, "w", 1) // seals the old segment
	if err := d.merge(); err != nil {
		t.Fatal(err)
	}
	if st := d.DurableStats(); st.WALPruned == 0 {
		t.Fatalf("the merge removed no segment: %+v", st)
	}
	powerCut(fs)
	d = openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	rs := d.Recovered()[testSK]
	for _, want := range []struct {
		key   string
		ver   proto.Version
		value []byte
	}{{"k", 8, val("k", 8)}, {"k", 7, val("k", 7)}, {"v", 1, []byte("newer")}} {
		if e := shardEntry(t, rs, want.key, want.ver); e == nil || !e.Rec.Committed || !bytes.Equal(e.Value, want.value) {
			t.Errorf("%s@%d after a merge and a power cut: %+v", want.key, want.ver, e)
		}
	}
	if st := d.DurableStats(); len(rs.Entries) != 3 || st.LiveRecords != 4 {
		t.Fatalf("recovered %d entries and indexed %d records, want 3 and 4 with w@1 open", len(rs.Entries), st.LiveRecords)
	}
}

// A merge drops a purged entry's append and leaves its markers where
// they lie, so replay can meet a commit and a purge of an entry that is
// gone, under a seq another entry holds by then. They must leave that
// entry alone.
func TestStaleMarkersSpareTheSeqsNewHolder(t *testing.T) {
	fs := wal.NewMemFS()
	opts := DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 256}
	d := openDurable(t, fs, opts)
	if err := d.Append(testSK, 28, rec("y", 1), make([]byte, 200), true); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, testSK, 28, "k", 2) // seq 28 handed out again; y@1 holds it
	mustCommit(t, d, testSK, 28, "y", 1)
	if err := d.Purge(testSK, 28, "y", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.merge(); err != nil {
		t.Fatal(err)
	}
	if st := d.DurableStats(); st.WALPruned == 0 || st.LiveRecords != 1 || st.Unresolved != 1 {
		t.Fatalf("before the power cut: %+v, want y@1's segment merged away and k@2 open", st)
	}
	powerCut(fs)
	d = openDurable(t, fs, opts)
	if st := d.DurableStats(); st.LiveRecords != 1 || st.Unresolved != 1 {
		t.Fatalf("replay indexed %d records (%d open), want k@2 alone and open", st.LiveRecords, st.Unresolved)
	}
}

// An append an earlier life left open is named by its key, since what
// purges it then names it with seq 0. Filed under a seq of the index's
// own because another entry held its seq, it keeps that name when a
// merge's copy files it under its own seq again.
func TestOpenAppendKeepsItsName(t *testing.T) {
	fs := wal.NewMemFS()
	opts := DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 256}
	d := openDurable(t, fs, opts)
	mustAppend(t, d, testSK, 2, "k", 8)
	mustCommit(t, d, testSK, 2, "k", 8)
	mustAppend(t, d, testSK, 2, "k", 7) // open, and seq 2 is k@8's
	if err := d.Purge(testSK, 2, "k", 8); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	powerCut(fs)
	d = openDurable(t, fs, opts)
	for i := 0; i < 4; i++ { // seal the segment k@7 is in
		mustAppend(t, d, testSK, proto.Seq(5+i), "w", proto.Version(i+1))
	}
	if err := d.merge(); err != nil {
		t.Fatal(err)
	}
	if s := d.live[testSK].named[entryKey{"k", 7}]; s != 2 {
		t.Fatalf("after the merge k@7 is named %d, want its own seq 2", s)
	}
	if err := d.Purge(testSK, 0, "k", 7); err != nil {
		t.Fatal(err)
	}
	if st := d.DurableStats(); st.LiveRecords != 4 {
		t.Fatalf("after the purge of k@7 by its key the index holds %d records, want the four w", st.LiveRecords)
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	// Crashing immediately after a recovery must replay to the identical
	// state.
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

// nullFS is a disk whose files keep nothing: Append only counts, so an
// allocation a pin sees is the durable tier's own.
type nullFS struct{ wal.FS }

func (nullFS) OpenFile(string) (wal.File, error) { return &nullFile{}, nil }
func (nullFS) List() ([]string, error)           { return nil, nil }
func (nullFS) Remove(string) error               { return nil }

type nullFile struct {
	wal.File
	size int64
}

func (f *nullFile) Append(p []byte) (int, error) { f.size += int64(len(p)); return len(p), nil }
func (f *nullFile) Truncate(size int64) error    { f.size = size; return nil }
func (f *nullFile) Size() int64                  { return f.size }
func (f *nullFile) Sync() error                  { return nil }
func (f *nullFile) Close() error                 { return nil }

// Every record is encoded into one scratch frame the Durable keeps, so
// in steady state a write allocates nothing: the bytes are copied once,
// into the file.
func TestDurableWritesDoNotAllocate(t *testing.T) {
	d := openDurable(t, nullFS{}, DurableOptions{Policy: FsyncAlways})
	r, value := rec("k", 1), make([]byte, 1<<10)
	srs := &proto.MetaRecord{Key: "s", Version: 1, Memgest: 2, Length: 4096, LocBlock: 3}
	for name, f := range map[string]func() error{
		"rep append":  func() error { return d.Append(testSK, 1, r, value, true) },
		"rep commit":  func() error { return d.Commit(testSK, 1, r, value, true) },
		"rep install": func() error { return d.Install(testSK, 1, r, value, true) },
		"rep purge":   func() error { return d.Purge(testSK, 1, r.Key, r.Version) },
		"srs append":  func() error { return d.Append(ShardKey{Memgest: 2}, 2, srs, nil, false) },
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

// A record larger than the scratch bound gets a buffer of its own: the
// frame kept after a 1 MiB value is no bigger than the bound.
func TestScratchFrameIsBounded(t *testing.T) {
	d := openDurable(t, nullFS{}, DurableOptions{Policy: FsyncAlways})
	for _, size := range []int{1 << 20, 1 << 10} {
		if err := d.Append(testSK, 1, rec("k", 1), make([]byte, size), true); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(d.frame); c > maxScratch {
		t.Fatalf("after a 1 MiB append and a 1 KiB one the scratch frame holds %d bytes, want <= %d", c, maxScratch)
	}
}

// Recovery reads the log one segment at a time into one buffer and
// writes nothing: what it allocates is about the values it restores,
// not two more copies of the log.
func TestOpenAllocatesAboutTheValues(t *testing.T) {
	const n, size = 4096, 1 << 10
	fs := wal.DirFS(t.TempDir())
	d := openDurable(t, fs, DurableOptions{Policy: FsyncNever})
	value := make([]byte, size)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%05d", i)
		if err := d.Append(testSK, proto.Seq(i+1), rec(key, 1), value, true); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(testSK, proto.Seq(i+1), rec(key, 1), nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d = openDurable(t, fs, DurableOptions{Policy: FsyncNever})
	runtime.ReadMemStats(&after)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Recovered()[testSK].Entries); got != n {
		t.Fatalf("recovered %d entries, want %d", got, n)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / (n * size)
	t.Logf("OpenDurable of %d x %d B allocates %.2fx the values", n, size, ratio)
	if ratio > 2.75 {
		t.Errorf("OpenDurable of %d x %d B allocates %.2fx the values, want <= 2.75", n, size, ratio)
	}
}

// The largest key and value a node accepts make one record the log
// holds: it appends and reopens undamaged, key and value whole.
func TestRecordAtTheLimitsReopens(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	r := &proto.MetaRecord{Key: strings.Repeat("k", proto.MaxKey), Version: 1, Memgest: testSK.Memgest, Length: proto.MaxValue}
	value := bytes.Repeat([]byte{7}, proto.MaxValue)
	if err := d.Append(testSK, 1, r, value, true); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(testSK, 1, r, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	e := shardEntry(t, d.Recovered()[testSK], r.Key, 1)
	if d.Damaged() || e == nil || !e.Rec.Committed || !bytes.Equal(e.Value, value) {
		t.Fatalf("record at the limits after reopen: damaged=%v entry found=%v", d.Damaged(), e != nil)
	}
}

// The live-record index holds no pointer and no key: the collector does
// not scan it, and it pins none of the key chunks a metadata table
// names its entries' keys in.
func TestDurableIndexHasNoPointers(t *testing.T) {
	typ := reflect.TypeFor[map[proto.Seq]liveRec]()
	if got := reflect.TypeFor[shardIndex]().Field(0).Type; got != typ {
		t.Fatalf("shardIndex's first field is a %v, want the %v this test checks", got, typ)
	}
	t.Logf("an index entry is a %d-byte seq and a %d-byte record", typ.Key().Size(), typ.Elem().Size())
	if size := typ.Elem().Size(); size != 16 {
		t.Errorf("liveRec is %d bytes, want 16", size)
	}
	for _, f := range append(testutil.PointerFields("key", typ.Key()), testutil.PointerFields("liveRec", typ.Elem())...) {
		t.Errorf("%s: the collector would scan the index", f)
	}
}

// TestDurableIndexBytesPerRecord pins what the index costs per live
// record: 4096 appends in one shard, as a preloaded node's shard holds
// them, grow the collected heap by at most 64 B each. A map from seq to
// a 16-byte record has 25-byte slots in tables at most 7/8 full, about
// 40 B per record predicted, 53.7 measured. The index it replaced, a
// map from key and version to a 40-byte record, measured 128.5 here
// and about 187 B per record in a ringd's heap profile, where its keys
// also kept key chunks alive.
func TestDurableIndexBytesPerRecord(t *testing.T) {
	const n, bound = 4096, 64.0
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%08x", i)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	d := openDurable(t, nullFS{}, DurableOptions{Policy: FsyncNever})
	r := &proto.MetaRecord{Version: 1, Memgest: testSK.Memgest, Length: 1024}
	value := make([]byte, 1024)
	before := heap()
	for i, k := range keys {
		r.Key = k
		if err := d.Append(testSK, proto.Seq(i+1), r, value, true); err != nil {
			t.Fatal(err)
		}
	}
	perRecord := float64(int64(heap())-int64(before)) / n
	t.Logf("%.1f B of collected heap per live record", perRecord)
	if st := d.DurableStats(); st.LiveRecords != n {
		t.Fatalf("the index holds %d records, want %d", st.LiveRecords, n)
	}
	if perRecord > bound {
		t.Errorf("a live record costs %.1f B of collected heap, want at most %.1f", perRecord, bound)
	}
	runtime.KeepAlive(keys)
	runtime.KeepAlive(d)
}
