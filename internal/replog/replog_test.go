package replog

import "testing"

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
	if tr.Ack(1, 10) {
		t.Fatal("quorum reached with 1 of 2 acks")
	}
	if tr.Ack(1, 10) {
		t.Fatal("duplicate ack counted")
	}
	if !tr.Ack(1, 11) {
		t.Fatal("quorum not reached with 2 of 2 acks")
	}
	if tr.Ack(1, 12) {
		t.Fatal("ack after completion returned true")
	}
	if tr.Pending() != 0 {
		t.Fatal("entry not cleaned up")
	}
}

func TestTrackerZeroNeed(t *testing.T) {
	tr := NewTracker()
	tr.Open(5, 0) // no-op: immediately complete
	if tr.Pending() != 0 {
		t.Fatal("zero-need entry registered")
	}
	if tr.Ack(5, 1) {
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

func TestTrackerCancelAndPendingSeqs(t *testing.T) {
	tr := NewTracker()
	tr.Open(3, 1)
	tr.Open(1, 1)
	tr.Open(2, 1)
	seqs := tr.PendingSeqs()
	if len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("PendingSeqs = %v", seqs)
	}
	tr.Cancel(2)
	if tr.Pending() != 2 {
		t.Fatal("cancel failed")
	}
	if tr.Ack(2, 1) {
		t.Fatal("ack on cancelled entry")
	}
}

func TestTrackerOutOfOrderCommits(t *testing.T) {
	// Higher sequences may complete before lower ones (the paper's
	// independent-commit property).
	tr := NewTracker()
	tr.Open(1, 2)
	tr.Open(2, 1)
	if !tr.Ack(2, 7) {
		t.Fatal("seq 2 should commit first")
	}
	tr.Ack(1, 7)
	if !tr.Ack(1, 8) {
		t.Fatal("seq 1 should commit after")
	}
}

func TestTrackerAbortedSequence(t *testing.T) {
	// An abort (Cancel) kills the sequence: a late ack must not report
	// a commit, and progress resumes with a fresh sequence.
	tr := NewTracker()

	s1 := tr.Next()
	tr.Open(s1, 2)
	if !tr.Ack(s1, 10) {
		tr.Ack(s1, 11)
	}

	s2 := tr.Next()
	tr.Open(s2, 2)
	tr.Ack(s2, 10)
	tr.Cancel(s2) // aborted before quorum

	if tr.Ack(s2, 11) {
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
	if !tr.Ack(s3, 10) {
		t.Fatal("post-abort entry failed to commit")
	}
}
