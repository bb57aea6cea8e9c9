package replog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ring/internal/proto"
	"ring/internal/wal"
)

// The WAL is the only file an acknowledgement waits on, so between two
// checkpoints Bitcask may hold none of what the log says. These tests
// make that the worst it can be — powerCut loses every byte no fsync
// covered — and check that each effect Bitcask alone used to carry is
// recovered from the log.

// zeroSource makes MemFS.Crash tear at the synced prefix exactly.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

func powerCut(fs *wal.MemFS) { fs.Crash(rand.New(zeroSource{})) }

// faultFS wraps an FS to count the files open through it and to fail a
// chosen operation: fail is asked before every file Append, ReadAt and
// Sync and every Remove, with the file's name.
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
	if err := f.fs.check("readat", f.name); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
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

// checkpointed returns a store holding k0..k3 committed in testSK, all
// of it in fsynced Bitcask with an empty WAL behind (Close checkpoints).
func checkpointed(t *testing.T, fs wal.FS) *Durable {
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

// An install sits below the shard's MaxSeq: if only Bitcask carried it,
// a later synced append would make the floor cover a hole.
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
	if st := d.DurableStats(); st.BitcaskFsyncs != 0 || st.Checkpoints != 0 {
		t.Fatalf("a checkpoint ran (%+v): the test no longer covers the window it is about", st)
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

func TestResetVoidsWhatBitcaskKept(t *testing.T) {
	fs := wal.NewMemFS()
	d := checkpointed(t, fs)
	other := ShardKey{Memgest: 2, Shard: 1}
	mustAppend(t, d, other, 1, "keep", 1)
	mustCommit(t, d, other, 1, "keep", 1)
	if err := d.Reset(testSK); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	powerCut(fs) // Bitcask still holds k0..k3: its tombstones were never fsynced

	d2 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways})
	if rs := d2.Recovered()[testSK]; rs != nil {
		t.Fatalf("reset shard replayed from Bitcask: %s", snapshot(d2))
	}
	if e := shardEntry(t, d2.Recovered()[other], "keep", 1); e == nil || !e.Rec.Committed {
		t.Fatal("reset bled into another shard")
	}
	// And recovery made the reset stick: nothing comes back next time.
	powerCut(fs)
	if d3 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways}); d3.Recovered()[testSK] != nil {
		t.Fatalf("reset shard back after a second crash: %s", snapshot(d3))
	}
}

func TestPurgeVoidsWhatBitcaskKept(t *testing.T) {
	fs := wal.NewMemFS()
	d := checkpointed(t, fs)
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
		t.Fatalf("purged version replayed from Bitcask: %s", snapshot(d2))
	}
	if len(rs.Entries) != 3 || rs.Since != 4 {
		t.Fatalf("after purge: %s", snapshot(d2))
	}
	powerCut(fs)
	if d3 := openDurable(t, fs, DurableOptions{Policy: FsyncAlways}); shardEntry(t, d3.Recovered()[testSK], "k1", 1) != nil {
		t.Fatalf("purged version back after a second crash: %s", snapshot(d3))
	}
}

// A checkpoint is Bitcask fsync, then prune. A power cut before it,
// between its two steps and after it must all recover the same state.
func TestCrashAtEachCheckpointStep(t *testing.T) {
	boom := errors.New("power cut")
	opts := DurableOptions{Policy: FsyncAlways, WALSegmentBytes: 2048}
	run := func(fail func(string, string) error) string {
		mem := wal.NewMemFS()
		fs := &faultFS{FS: mem}
		d := openDurable(t, fs, opts)
		fs.fail = fail
		// Commits, overwrites with their purges, an install, and appends
		// left open, a Sync after each step, until a Sync checkpoints.
		for i := 0; ; i++ {
			if i > 200 {
				t.Fatal("no WAL segment ever sealed")
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
			err := d.Sync()
			if err != nil && !errors.Is(err, boom) {
				t.Fatal(err)
			}
			if err != nil || d.DurableStats().Checkpoints > 0 {
				break
			}
		}
		powerCut(mem)
		return snapshot(openDurable(t, mem, opts))
	}
	after := run(nil)
	// The checkpoint must have had purges, an install and open appends
	// behind it, or the three runs agree about nothing.
	if !strings.Contains(after, "inst4@1") || strings.Contains(after, "k0@1 ") || !strings.Contains(after, "since=1 ") {
		t.Fatalf("scenario lost its shape:\n%s", after)
	}
	if before := run(failFirst("sync", "bc-", boom)); before != after {
		t.Fatalf("crash before the Bitcask fsync:\n%safter the checkpoint:\n%s", before, after)
	}
	if between := run(failFirst("remove", "wal-", boom)); between != after {
		t.Fatalf("crash between the Bitcask fsync and the prune:\n%safter the checkpoint:\n%s", between, after)
	}
}

// OpenDurable returns no handle on failure, so whatever it opened
// before the failing step it must close itself.
func TestFailedOpenClosesItsFiles(t *testing.T) {
	boom := errors.New("disk gone")
	for _, tc := range []struct{ op, prefix string }{
		{"sync", ""},       // the first fsync of the open, whichever file it is
		{"sync", "wal-"},   // w.Compact
		{"readat", "bc-"},  // db.Range
		{"append", "bc-"},  // normalization's db.Put
		{"append", "wal-"}, // w.Compact's rewrite
		{"remove", "wal-"}, // w.Compact dropping the old generation
	} {
		t.Run(tc.op+"/"+tc.prefix, func(t *testing.T) {
			// A store with entries in Bitcask, committed entries only the
			// WAL holds, and an open append: every phase has work to do.
			mem := wal.NewMemFS()
			d := checkpointed(t, mem)
			mustAppend(t, d, testSK, 5, "walonly", 1)
			mustCommit(t, d, testSK, 5, "walonly", 1)
			mustAppend(t, d, testSK, 6, "open", 1)
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			powerCut(mem)

			fs := &faultFS{FS: mem, fail: failFirst(tc.op, tc.prefix, boom)}
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
}

// A put is three records — WAL append, Bitcask put, WAL commit marker —
// and each reaches its file as one File.Append.
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
	if appends != 3 {
		t.Fatalf("append + commit made %d File.Append calls, want 3", appends)
	}
}
