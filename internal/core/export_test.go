package core

import (
	"os"
	"testing"

	"ring/internal/store"
)

// TestMain switches payload poisoning on for every cluster these tests
// drive — the crash matrix and the resize e2e included: a handler that
// keeps a view into a packet past its return reads 0xDB.
func TestMain(m *testing.M) {
	PoisonPayloads = true
	os.Exit(m.Run())
}

// Inspectors for the external (package core_test) e2e tests, which
// drive the cluster through the real client and so cannot live in
// package core.

// KeyVersions returns the key's version refs, newest first.
func (n *Node) KeyVersions(key string) []store.VersionRef {
	return n.volFor(n.shardOf(key)).All(key)
}

// OpenMoves returns the number of open move windows.
func (n *Node) OpenMoves() int { return len(n.moving) }
