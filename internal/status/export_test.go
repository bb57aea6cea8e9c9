package status

import (
	"testing"
	"time"
)

// shortenHeadDeadline sets the deadline a connection gets for its
// request head for the rest of the test. Call it before Serve: the
// servers a test starts afterwards are closed before it is put back.
func shortenHeadDeadline(t *testing.T, d time.Duration) {
	old := headDeadline
	headDeadline = d
	t.Cleanup(func() { headDeadline = old })
}
