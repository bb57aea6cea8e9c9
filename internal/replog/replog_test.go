package replog

import (
	"testing"

	"ring/internal/proto"
)

// acked records an ack and reports whether it completed the entry; the
// proof handed over on completion must hold.
func acked(tr *Tracker, seq proto.Seq, from proto.NodeID) bool {
	q, ok := tr.Ack(seq, from)
	if ok {
		q.Assert()
	}
	return ok
}

func TestTrackerSequences(t *testing.T) {
	tr := NewTracker()
	if tr.Next() != 1 || tr.Next() != 2 || tr.Next() != 3 {
		t.Fatal("sequences must start at 1 and increment")
	}
}

func TestTrackerQuorum(t *testing.T) {
	tr := NewTracker()
	tr.Open(1, 2)
	if tr.Pending() != 1 {
		t.Fatal("pending != 1")
	}
	if acked(tr, 1, 10) {
		t.Fatal("quorum reached with 1 of 2 acks")
	}
	if acked(tr, 1, 10) {
		t.Fatal("duplicate ack counted")
	}
	if !acked(tr, 1, 11) {
		t.Fatal("quorum not reached with 2 of 2 acks")
	}
	if acked(tr, 1, 12) {
		t.Fatal("ack after completion returned true")
	}
	if tr.Pending() != 0 {
		t.Fatal("entry not cleaned up")
	}
}

func TestTrackerZeroNeed(t *testing.T) {
	tr := NewTracker()
	q, ok := tr.Open(5, 0) // not registered: immediately complete
	if !ok {
		t.Fatal("zero-need entry not complete at Open")
	}
	q.Assert()
	if _, ok := tr.Open(6, 1); ok {
		t.Fatal("entry owing an ack complete at Open")
	}
	tr.Cancel(6)
	if tr.Pending() != 0 {
		t.Fatal("zero-need entry registered")
	}
	if acked(tr, 5, 1) {
		t.Fatal("ack on unregistered seq")
	}
}

func TestTrackerDoubleOpenPanics(t *testing.T) {
	tr := NewTracker()
	tr.Open(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double open did not panic")
		}
	}()
	tr.Open(1, 1)
}

func TestTrackerCancel(t *testing.T) {
	tr := NewTracker()
	tr.Open(3, 1)
	tr.Open(1, 1)
	tr.Open(2, 1)
	tr.Cancel(2)
	if tr.Pending() != 2 {
		t.Fatal("cancel failed")
	}
	if acked(tr, 2, 1) {
		t.Fatal("ack on cancelled entry")
	}
}

func TestTrackerOutOfOrderCommits(t *testing.T) {
	// Higher sequences may complete before lower ones (the paper's
	// independent-commit property).
	tr := NewTracker()
	tr.Open(1, 2)
	tr.Open(2, 1)
	if !acked(tr, 2, 7) {
		t.Fatal("seq 2 should commit first")
	}
	acked(tr, 1, 7)
	if !acked(tr, 1, 8) {
		t.Fatal("seq 1 should commit after")
	}
}

func TestTrackerAbortedSequence(t *testing.T) {
	// An abort (Cancel) kills the sequence: a late ack must not report
	// a commit, and progress resumes with a fresh sequence.
	tr := NewTracker()

	s1 := tr.Next()
	tr.Open(s1, 2)
	if !acked(tr, s1, 10) {
		acked(tr, s1, 11)
	}

	s2 := tr.Next()
	tr.Open(s2, 2)
	acked(tr, s2, 10)
	tr.Cancel(s2) // aborted before quorum

	if acked(tr, s2, 11) {
		t.Fatal("late ack on an aborted sequence reported a commit")
	}
	if tr.Pending() != 0 {
		t.Fatalf("pending = %d after abort, want 0", tr.Pending())
	}

	s3 := tr.Next()
	if s3 != s2+1 {
		t.Fatalf("next seq after abort = %d, want %d", s3, s2+1)
	}
	tr.Open(s3, 1)
	if !acked(tr, s3, 10) {
		t.Fatal("post-abort entry failed to commit")
	}
}

// TestQuorumZeroValue: the one Quorum another package can write is the
// zero value, and the sinks' Assert rejects it; Committed holds only
// over committed records (over none, vacuously).
func TestQuorumZeroValue(t *testing.T) {
	Committed().Assert()
	Committed(&proto.MetaRecord{Committed: true}).Assert()
	ChaosForgeQuorum().Assert()
	for name, q := range map[string]Quorum{
		"zero":        {},
		"uncommitted": Committed(&proto.MetaRecord{Committed: true}, &proto.MetaRecord{}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s Quorum passed Assert", name)
				}
			}()
			q.Assert()
		}()
	}
}
