package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

type replayed struct {
	seg     uint64
	payload []byte
}

func collect(t *testing.T, fs FS, opts Options) (*WAL, []replayed) {
	t.Helper()
	var recs []replayed
	w, err := Open(fs, opts, func(seg uint64, payload []byte) error {
		recs = append(recs, replayed{seg, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w, recs
}

func TestAppendReopenReplay(t *testing.T) {
	fs := NewMemFS()
	w, recs := collect(t, fs, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-gamma")}
	for _, p := range want {
		if _, err := w.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, recs = collect(t, fs, Options{})
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if !bytes.Equal(r.payload, want[i]) {
			t.Fatalf("record %d = %q, want %q", i, r.payload, want[i])
		}
	}
}

func TestUnsyncedAppendSurvivesCleanClose(t *testing.T) {
	// Under fsync policy "never" the WAL is never synced mid-run, but a
	// clean Close still lands everything.
	fs := NewMemFS()
	w, _ := collect(t, fs, Options{})
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if !w.Dirty() {
		t.Fatal("append did not mark the log dirty")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := collect(t, fs, Options{})
	if len(recs) != 1 || string(recs[0].payload) != "x" {
		t.Fatalf("replay after close = %v", recs)
	}
}

func TestRotationAndSealedSegments(t *testing.T) {
	fs := NewMemFS()
	w, _ := collect(t, fs, Options{SegmentBytes: 64})
	payload := bytes.Repeat([]byte("r"), 40)
	segs := map[uint64]bool{}
	for i := 0; i < 6; i++ {
		seg, err := w.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		segs[seg] = true
	}
	if len(segs) < 3 {
		t.Fatalf("6 oversized appends landed in only %d segments", len(segs))
	}
	if got := len(w.SealedSegments()); got != len(segs)-1 {
		t.Fatalf("SealedSegments = %d, want %d", got, len(segs)-1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := collect(t, fs, Options{SegmentBytes: 64})
	if len(recs) != 6 {
		t.Fatalf("replayed %d records across rotated segments, want 6", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].seg < recs[i-1].seg {
			t.Fatalf("replay out of segment order: %d then %d", recs[i-1].seg, recs[i].seg)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	w, _ := collect(t, fs, Options{})
	if _, err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("torn-away-record")); err != nil {
		t.Fatal(err)
	}
	// Crash before the second sync: MemFS keeps the synced prefix plus
	// a random cut of the unsynced suffix — a torn final record.
	fs.Crash(rand.New(rand.NewSource(7)))

	w2, recs := collect(t, fs, Options{})
	if len(recs) != 1 || string(recs[0].payload) != "kept" {
		t.Fatalf("replay after torn tail = %v, want just %q", recs, "kept")
	}
	if w2.Damaged() {
		t.Fatal("a torn tail must not count as damage")
	}
	// The truncated log must accept appends again and stay consistent.
	if _, err := w2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs = collect(t, fs, Options{})
	if len(recs) != 2 || string(recs[1].payload) != "after" {
		t.Fatalf("replay after recovery append = %v", recs)
	}
}

func TestBitFlipDetectedAsDamage(t *testing.T) {
	fs := NewMemFS()
	w, _ := collect(t, fs, Options{})
	for i := 0; i < 4; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !fs.CorruptWAL(rand.New(rand.NewSource(3))) {
		t.Fatal("CorruptWAL found nothing to flip")
	}
	w2, recs := collect(t, fs, Options{})
	if !w2.Damaged() {
		t.Fatal("bit flip in a fully-present record must report Damaged")
	}
	if len(recs) >= 4 {
		t.Fatalf("corrupted log replayed all %d records", len(recs))
	}
	// Whatever survived must be an exact prefix.
	for i, r := range recs {
		want := fmt.Sprintf("record-%d-padding-padding", i)
		if string(r.payload) != want {
			t.Fatalf("record %d = %q, want %q", i, r.payload, want)
		}
	}
}

// A flipped bit in a length word can make the frame claim more than the
// file holds, as a torn write does; but the word then fails its check,
// so every one of its 32 bits flipped is damage, not a tail to drop
// quietly.
func TestFlippedLengthIsDamage(t *testing.T) {
	second := int64(headerSize + frameSize + len("first"))
	for bit := int64(0); bit < 32; bit++ {
		fs := NewMemFS()
		w, _ := collect(t, fs, Options{})
		for _, p := range []string{"first", "second", "third"} {
			if _, err := w.Append([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !fs.FlipBit(SegName(1), second*8+bit) {
			t.Fatal("nothing to flip")
		}
		w2, recs := collect(t, fs, Options{})
		if !w2.Damaged() || len(recs) != 1 {
			t.Errorf("length bit %d flipped: damaged=%v, %d records replayed", bit, w2.Damaged(), len(recs))
		}
	}
}

func TestCorruptionInNonFinalSegmentIsDamage(t *testing.T) {
	fs := NewMemFS()
	w, _ := collect(t, fs, Options{SegmentBytes: 64})
	payload := bytes.Repeat([]byte("z"), 40)
	for i := 0; i < 4; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop the FIRST segment mid-record: even though the break looks
	// like a torn tail locally, later segments exist, so it is damage.
	name := SegName(1)
	data, err := fs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(int64(len(data) - 3)); err != nil {
		t.Fatal(err)
	}
	w2, _ := collect(t, fs, Options{SegmentBytes: 64})
	if !w2.Damaged() {
		t.Fatal("mid-log truncation must report Damaged")
	}
}

func TestPruneToDropsPrefix(t *testing.T) {
	fs := NewMemFS()
	w, _ := collect(t, fs, Options{SegmentBytes: 64})
	payload := bytes.Repeat([]byte("p"), 40)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	sealed := w.SealedSegments()
	if len(sealed) < 2 {
		t.Fatalf("want >=2 sealed segments, got %v", sealed)
	}
	cut := sealed[len(sealed)-1] // drop all but the newest sealed segment
	if err := w.PruneTo(cut); err != nil {
		t.Fatal(err)
	}
	if got := w.SealedSegments(); len(got) != 1 || got[0] != cut {
		t.Fatalf("SealedSegments after prune = %v, want [%d]", got, cut)
	}
	for _, s := range sealed[:len(sealed)-1] {
		if fs.FileSize(SegName(s)) != 0 {
			t.Fatalf("pruned segment %d still on disk", s)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := collect(t, fs, Options{SegmentBytes: 64})
	if len(recs) == 0 || len(recs) >= 5 {
		t.Fatalf("replay after prune = %d records", len(recs))
	}
}

func TestFailingSyncSurfaces(t *testing.T) {
	fs := NewMemFS()
	w, _ := collect(t, fs, Options{})
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("fsyncgate")
	fs.FailSyncs(boom)
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync with failing disk = %v, want %v", err, boom)
	}
	fs.FailSyncs(nil)
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync after heal = %v", err)
	}
}

func TestDirFS(t *testing.T) {
	dir := t.TempDir()
	fs := DirFS(dir)
	w, err := Open(fs, Options{SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("d"), 40)
	for i := 0; i < 4; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	w2, err := Open(fs, Options{SegmentBytes: 64}, func(uint64, []byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("DirFS replayed %d records, want 4", n)
	}
	if err := w2.PruneTo(w2.ActiveSegment()); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// failRemoveFS fails Remove for selected names; everything else passes
// through.
type failRemoveFS struct {
	FS
	fail map[string]error
}

func (f *failRemoveFS) Remove(name string) error {
	if err := f.fail[name]; err != nil {
		return err
	}
	return f.FS.Remove(name)
}

func TestPruneToErrorKeepsRemainder(t *testing.T) {
	// Regression: a mid-prune Remove failure used to rebuild the sealed
	// list from only the segments visited so far, dropping the untouched
	// remainder — segments that still existed on disk but could never be
	// pruned again.
	fs := &failRemoveFS{FS: NewMemFS(), fail: map[string]error{}}
	w, _ := collect(t, fs, Options{SegmentBytes: 64})
	payload := bytes.Repeat([]byte("p"), 40)
	for i := 0; i < 7; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	sealed := w.SealedSegments()
	if len(sealed) < 3 {
		t.Fatalf("want >=3 sealed segments, got %v", sealed)
	}
	boom := errors.New("remove blocked")
	fs.fail[SegName(sealed[1])] = boom
	if err := w.PruneTo(w.ActiveSegment()); !errors.Is(err, boom) {
		t.Fatalf("PruneTo = %v, want %v", err, boom)
	}
	// The failed segment AND everything after it must stay tracked.
	got := w.SealedSegments()
	want := sealed[1:]
	if len(got) != len(want) {
		t.Fatalf("SealedSegments after failed prune = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SealedSegments after failed prune = %v, want %v", got, want)
		}
	}
	// Heal the disk: a retry prunes the rest.
	delete(fs.fail, SegName(sealed[1]))
	if err := w.PruneTo(w.ActiveSegment()); err != nil {
		t.Fatal(err)
	}
	if got := w.SealedSegments(); len(got) != 0 {
		t.Fatalf("SealedSegments after healed prune = %v", got)
	}
}
