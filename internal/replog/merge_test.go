package replog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ring/internal/proto"
	"ring/internal/wal"
)

// The log is the store, and a merge rewrites it: live records are
// copied to its end and the sealed segments they came from removed.
// These tests cut the power at each step of that — powerCut loses every
// byte no fsync covered — and check that nothing a copy carries is lost
// and nothing a marker voided comes back.

// zeroSource makes MemFS.Crash tear at the synced prefix exactly.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

func powerCut(fs *wal.MemFS) { fs.Crash(rand.New(zeroSource{})) }

// faultFS wraps an FS to count the files open through it and to fail a
// chosen operation: fail is asked before every ReadFile and Remove and
// every file Append, ReadAt, Truncate and Sync, with the file's name. ReadFile and
// ReadAt are both "read", so a read fault reaches the open path however
// it reads.
type faultFS struct {
	wal.FS
	open int
	fail func(op, name string) error
}

func (f *faultFS) check(op, name string) error {
	if f.fail == nil {
		return nil
	}
	return f.fail(op, name)
}

func (f *faultFS) OpenFile(name string) (wal.File, error) {
	inner, err := f.FS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	f.open++
	return &faultFile{File: inner, fs: f, name: name}, nil
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	if err := f.check("read", name); err != nil {
		return nil, err
	}
	return f.FS.ReadFile(name)
}

func (f *faultFS) Remove(name string) error {
	if err := f.check("remove", name); err != nil {
		return err
	}
	return f.FS.Remove(name)
}

type faultFile struct {
	wal.File
	fs     *faultFS
	name   string
	closed bool
}

func (f *faultFile) Append(p []byte) (int, error) {
	if err := f.fs.check("append", f.name); err != nil {
		return 0, err
	}
	return f.File.Append(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.check("read", f.name); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.check("truncate", f.name); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *faultFile) Sync() error {
	if err := f.fs.check("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Close() error {
	if !f.closed { // a second Close on an error path is harmless
		f.closed = true
		f.fs.open--
	}
	return f.File.Close()
}

// failFirst fails the first op on a file whose name starts with prefix.
func failFirst(op, prefix string, err error) func(string, string) error {
	done := false
	return func(o, name string) error {
		if done || o != op || !strings.HasPrefix(name, prefix) {
			return nil
		}
		done = true
		return err
	}
}

// inMerge fails the first op after a merge began reading a sealed
// segment (the only read once the store is open).
func inMerge(op string, err error) func(string, string) error {
	reading, done := false, false
	return func(o, _ string) error {
		switch {
		case o == "read":
			reading = true
		case reading && !done && o == op:
			done = true
			return err
		}
		return nil
	}
}

// snapshot renders everything Recovered() holds, in a fixed order.
func snapshot(d *Durable) string {
	var sks []ShardKey
	for sk := range d.Recovered() {
		sks = append(sks, sk)
	}
	sort.Slice(sks, func(i, j int) bool { return sks[i].Less(sks[j]) })
	var b bytes.Buffer
	for _, sk := range sks {
		rs := d.Recovered()[sk]
		fmt.Fprintf(&b, "%+v since=%d max=%d\n", sk, rs.Since, rs.MaxSeq)
		for _, e := range rs.Entries {
			fmt.Fprintf(&b, "  %s@%d c=%v v=%q seq=%d\n", e.Rec.Key, e.Rec.Version, e.Rec.Committed, e.Value, e.Seq)
		}
	}
	return b.String()
}

// copiedByMerge returns a store holding k0..k3 committed in testSK,
// their live records copies a merge made: 256-byte segments seal after
// every record or two, and a forced merge moves them all forward.
func copiedByMerge(t *testing.T, fs wal.FS) *Durable {
	t.Helper()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 256})
	for i := 0; i < 4; i++ {
		mustAppend(t, d, testSK, proto.Seq(i+1), fmt.Sprintf("k%d", i), 1)
		mustCommit(t, d, testSK, proto.Seq(i+1), fmt.Sprintf("k%d", i), 1)
	}
	end := d.w.ActiveSegment()
	if err := d.merge(); err != nil {
		t.Fatal(err)
	}
	for h, l := range d.live[testSK] {
		if l.at.seg() < end {
			t.Fatalf("entry %#x still lives in merged segment %d", h, l.at.seg())
		}
	}
	return d
}

// reopened returns a store holding k0..k3 committed in testSK, closed
// and opened again: its index is the one replay built.
func reopened(t *testing.T, fs wal.FS) *Durable {
	t.Helper()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	for i := 0; i < 4; i++ {
		mustAppend(t, d, testSK, proto.Seq(i+1), fmt.Sprintf("k%d", i), 1)
		mustCommit(t, d, testSK, proto.Seq(i+1), fmt.Sprintf("k%d", i), 1)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
}

// An install sits below the shard's MaxSeq: a crash before any merge
// must find it in the log, or a later synced append would make the
// floor cover a hole.
func TestInstallSurvivesWithoutCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	if err := d.Install(testSK, 3, rec("inst", 1), val("inst", 1), true); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, testSK, 9, "later", 1)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := d.DurableStats(); st.Merges != 0 || st.WALSealed != 0 {
		t.Fatalf("a segment sealed (%+v): the test no longer covers the window it is about", st)
	}
	powerCut(fs)

	rs := openDurable(t, fs, DurableOptions{Policy: FsyncAlways}).Recovered()[testSK]
	if rs == nil {
		t.Fatal("shard lost")
	}
	if e := shardEntry(t, rs, "inst", 1); e == nil || !e.Rec.Committed || !bytes.Equal(e.Value, val("inst", 1)) {
		t.Fatalf("installed entry after the crash = %+v, with MaxSeq %d and Since %d covering it", e, rs.MaxSeq, rs.Since)
	}
}

// A reset written after a merge copied the shard forward voids the
// copies too, and recovery does not bring them back.
func TestResetVoidsMergedCopies(t *testing.T) {
	fs := wal.NewMemFS()
	d := copiedByMerge(t, fs)
	other := ShardKey{Memgest: 2, Shard: 1}
	mustAppend(t, d, other, 1, "keep", 1)
	mustCommit(t, d, other, 1, "keep", 1)
	if err := d.Reset(testSK); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	powerCut(fs)

	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	if rs := d2.Recovered()[testSK]; rs != nil {
		t.Fatalf("reset shard replayed from the merge's copies: %s", snapshot(d2))
	}
	if e := shardEntry(t, d2.Recovered()[other], "keep", 1); e == nil || !e.Rec.Committed {
		t.Fatal("reset bled into another shard")
	}
	powerCut(fs)
	if d3 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways}); d3.Recovered()[testSK] != nil {
		t.Fatalf("reset shard back after a second crash: %s", snapshot(d3))
	}
}

// A purge written after a merge copied the version forward voids the
// copy, and recovery does not bring it back.
func TestPurgeVoidsMergedCopy(t *testing.T) {
	fs := wal.NewMemFS()
	d := copiedByMerge(t, fs)
	if err := d.Purge(testSK, 2, "k1", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	powerCut(fs)

	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	rs := d2.Recovered()[testSK]
	if shardEntry(t, rs, "k1", 1) != nil {
		t.Fatalf("purged version replayed from the merge's copy: %s", snapshot(d2))
	}
	if len(rs.Entries) != 3 || rs.Since != 4 {
		t.Fatalf("after purge: %s", snapshot(d2))
	}
	powerCut(fs)
	if d3 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways}); shardEntry(t, d3.Recovered()[testSK], "k1", 1) != nil {
		t.Fatalf("purged version back after a second crash: %s", snapshot(d3))
	}
}

// A merge is copies, their fsync, then the removal of what was copied
// from. A power cut at the copies' fsync, at the first removal and
// after the merge must all recover the same state.
func TestCrashAtEachMergeStep(t *testing.T) {
	boom := errors.New("power cut")
	opts := DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 2048}
	run := func(fail func(string, string) error) string {
		mem := wal.NewMemFS()
		fs := &faultFS{FS: mem}
		d := openDurable(t, fs, opts)
		fs.fail = fail
		// Commits, overwrites with their purges, an install, and appends
		// left open, a Sync after each step, until a Sync merges.
		var err error
		for i := 0; err == nil && d.DurableStats().Merges == 0; i++ {
			if i > 200 {
				t.Fatal("no merge ever ran")
			}
			seq, key := proto.Seq(2*i+1), fmt.Sprintf("k%d", i%5)
			mustAppend(t, d, testSK, seq, key, proto.Version(i+1))
			mustCommit(t, d, testSK, seq, key, proto.Version(i+1))
			if i >= 5 {
				if err := d.Purge(testSK, seq-10, key, proto.Version(i-4)); err != nil {
					t.Fatal(err)
				}
			}
			if i%3 == 0 {
				mustAppend(t, d, testSK, seq+1, fmt.Sprintf("open%d", i), 1)
			}
			if i%4 == 0 {
				if err := d.Install(testSK, 0, rec(fmt.Sprintf("inst%d", i), 1), nil, false); err != nil {
					t.Fatal(err)
				}
			}
			if err = d.Sync(); err != nil && !errors.Is(err, boom) {
				t.Fatal(err)
			}
		}
		if (err != nil) != (fail != nil) {
			t.Fatalf("Sync = %v: the power cut missed the merge", err)
		}
		powerCut(mem)
		return snapshot(openDurable(t, mem, opts))
	}
	after := run(nil)
	// The merge must have had purges, an install and open appends behind
	// it, or the three runs agree about nothing.
	if !strings.Contains(after, "inst4@1") || strings.Contains(after, "k0@1 ") || !strings.Contains(after, "since=1 ") {
		t.Fatalf("scenario lost its shape:\n%s", after)
	}
	if copies := run(inMerge("sync", boom)); copies != after {
		t.Fatalf("crash at the copies' fsync:\n%safter the merge:\n%s", copies, after)
	}
	if removal := run(inMerge("remove", boom)); removal != after {
		t.Fatalf("crash at the first removal:\n%safter the merge:\n%s", removal, after)
	}
}

// Under FsyncNever nothing syncs on an acknowledgement's behalf, and a
// merge still bounds the log: it runs whenever a segment has sealed,
// whatever the policy, and fsyncs its copies itself.
func TestNeverPolicyBoundsTheLog(t *testing.T) {
	fs := wal.NewMemFS()
	d := openDurable(t, fs, DurableOptions{Policy: FsyncNever, WALSegmentBytes: 256})
	for i := 0; i < 500; i++ {
		seq, key := proto.Seq(i+1), fmt.Sprintf("k%d", i%5)
		mustAppend(t, d, testSK, seq, key, proto.Version(i+1))
		mustCommit(t, d, testSK, seq, key, proto.Version(i+1))
		if i >= 5 {
			if err := d.Purge(testSK, seq-5, key, proto.Version(i-4)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.MaybeSync(0, 1); err != nil { // as Flush calls it
			t.Fatal(err)
		}
		if sealed := d.DurableStats().WALSegments - 1; sealed > 4 {
			t.Fatalf("after %d overwrites of 5 keys the log keeps %d sealed segments", i+1, sealed)
		}
	}
	// A power cut takes the unsynced tail, never a merge's copies: the
	// log replays to a prefix of the writes, and each key keeps a version.
	powerCut(fs)
	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncNever})
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if !slices.ContainsFunc(d2.Recovered()[testSK].Entries, func(e RecoveredEntry) bool { return e.Rec.Key == key }) {
			t.Fatalf("%s lost:\n%s", key, snapshot(d2))
		}
	}
}

// OpenDurable returns no handle on failure, so whatever it opened
// before the failing step it must close itself. Its one step that can
// fail is wal.Open's replay: it writes nothing.
func TestFailedOpenClosesItsFiles(t *testing.T) {
	boom := errors.New("disk gone")
	t.Run("read/wal-", func(t *testing.T) {
		// A reopened store, committed entries appended after it, and an
		// open append.
		mem := wal.NewMemFS()
		d := reopened(t, mem)
		mustAppend(t, d, testSK, 5, "walonly", 1)
		mustCommit(t, d, testSK, 5, "walonly", 1)
		mustAppend(t, d, testSK, 6, "open", 1)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		powerCut(mem)

		fs := &faultFS{FS: mem, fail: failFirst("read", "wal-", boom)}
		if _, err := OpenDurable(fs, DurableOptions{Policy: FsyncAlways}); !errors.Is(err, boom) {
			t.Fatalf("OpenDurable = %v, want %v", err, boom)
		}
		if fs.open != 0 {
			t.Fatalf("failed open left %d files open", fs.open)
		}
		// The failure was transient: the next open recovers everything.
		fs.fail = nil
		d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
		if e := shardEntry(t, d2.Recovered()[testSK], "walonly", 1); e == nil || len(d2.Recovered()[testSK].Entries) != 5 {
			t.Fatalf("after a failed open:\n%s", snapshot(d2))
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
		if fs.open != 0 {
			t.Fatalf("Close left %d files open", fs.open)
		}
	})
}

// Recovery replays the log and writes nothing: over a log with
// committed entries, open appends, a reset and a merge behind it, the
// open makes no append, fsync, truncation or removal.
func TestRecoveryWritesNothing(t *testing.T) {
	mem := wal.NewMemFS()
	opts := DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 256}
	d := copiedByMerge(t, mem)
	other := ShardKey{Memgest: 2, Shard: 1}
	for i := 0; i < 6; i++ {
		seq, key := proto.Seq(10+i), fmt.Sprintf("w%d", i)
		mustAppend(t, d, testSK, seq, key, 1)
		if i%3 != 0 {
			mustCommit(t, d, testSK, seq, key, 1)
		}
		mustAppend(t, d, other, seq, key, 1)
	}
	if err := d.Reset(other); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := d.DurableStats(); st.Merges == 0 || st.Unresolved != 2 || st.WALSegments < 3 {
		t.Fatalf("the log lost its shape: %+v", st)
	}
	powerCut(mem)
	want := snapshot(openDurable(t, mem, opts))

	writes := map[string]int{}
	fs := &faultFS{FS: mem, fail: func(op, _ string) error {
		if op != "read" {
			writes[op]++
		}
		return nil
	}}
	if got := snapshot(openDurable(t, fs, opts)); got != want || !strings.Contains(got, "w5@1") {
		t.Fatalf("second open:\n%sfirst:\n%s", got, want)
	}
	if len(writes) != 0 {
		t.Fatalf("OpenDurable wrote to the log: %v", writes)
	}
}

// A merge right after an open copies exactly the records replay
// indexed: a position that is off by one would name a record of
// another entry, and the merge would drop the live one silently.
func TestMergeAfterReopenReadsReplayedPositions(t *testing.T) {
	mem := wal.NewMemFS()
	opts := DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 256}
	d := openDurable(t, mem, opts)
	for i := 0; i < 40; i++ {
		seq, key := proto.Seq(i+1), fmt.Sprintf("k%d", i%7)
		mustAppend(t, d, testSK, seq, key, proto.Version(i+1))
		if i%5 != 4 {
			mustCommit(t, d, testSK, seq, key, proto.Version(i+1))
		}
		if i >= 7 {
			if err := d.Purge(testSK, seq-7, key, proto.Version(i-6)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	before := d.DurableStats()
	powerCut(mem)

	d = openDurable(t, mem, opts)
	want := snapshot(d)
	if st := d.DurableStats(); st.LiveRecords != before.LiveRecords || st.LiveBytes != before.LiveBytes || st.Unresolved != before.Unresolved {
		t.Fatalf("replay indexed %+v, the store held %+v", st, before)
	}
	end := d.w.ActiveSegment()
	if err := d.merge(); err != nil {
		t.Fatal(err)
	}
	for h, l := range d.live[testSK] {
		if l.at.seg() < end {
			t.Fatalf("entry %#x still lives in merged segment %d: the merge did not find it where replay put it", h, l.at.seg())
		}
	}
	if st := d.DurableStats(); st.LiveRecords != before.LiveRecords || st.WALPruned == 0 {
		t.Fatalf("after the merge: %+v", st)
	}
	powerCut(mem)
	if got := snapshot(openDurable(t, mem, opts)); got != want {
		t.Fatalf("after a merge of the reopened log:\n%swant:\n%s", got, want)
	}
}

// A put is two records — the append and the commit marker — and each
// reaches the log as one File.Append.
func TestOneFileAppendPerRecord(t *testing.T) {
	appends := 0
	fs := &faultFS{FS: wal.NewMemFS()}
	d := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	fs.fail = func(op, _ string) error {
		if op == "append" {
			appends++
		}
		return nil
	}
	mustAppend(t, d, testSK, 1, "k", 1)
	mustCommit(t, d, testSK, 1, "k", 1)
	if appends != 2 {
		t.Fatalf("append + commit made %d File.Append calls, want 2", appends)
	}
}

// A directory an older binary wrote keeps committed entries in Bitcask
// files whose log records it pruned, or frames whose length words carry
// no check: replaying it would drop entries silently or read a flipped
// length as a torn tail, so the open refuses and says what to do.
func TestOldDataDirectoryRefused(t *testing.T) {
	for _, name := range []string{"bc-00000001.data", wal.SegName(1)} {
		fs := wal.NewMemFS()
		f, err := fs.OpenFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append([]byte("RINGWAL1 an older store")); err != nil {
			t.Fatal(err)
		}
		_, err = OpenDurable(fs, DurableOptions{})
		if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "remove the data directory") {
			t.Fatalf("OpenDurable over an older %s = %v", name, err)
		}
	}
}
