package core

import (
	"os"
	"testing"
	"time"

	"ring/internal/proto"
	"ring/internal/store"
)

// TestMain switches payload poisoning on for every cluster these tests
// drive — the crash matrix and the resize e2e included: a handler that
// keeps a view into a packet past its return reads 0xDB.
func TestMain(m *testing.M) {
	PoisonPayloads = true
	os.Exit(m.Run())
}

// deliver and tickOuts run one event as a batch of its own, the way the
// simulator does, and return what the node's Flush handed over (the
// caller's until the Flush after the next): HandleMessage and HandleTick
// return nothing, so every test that reads a handler's outputs reads
// them here.
func (n *Node) deliver(now time.Duration, from string, msg proto.Message) []Out {
	n.HandleMessage(now, from, msg)
	return n.flushOuts()
}

func (n *Node) tickOuts(now time.Duration) []Out {
	n.HandleTick(now)
	return n.flushOuts()
}

func (n *Node) flushOuts() []Out {
	outs, err := n.Flush()
	if err != nil {
		panic(err)
	}
	return outs
}

// Inspectors for the external (package core_test) e2e tests, which
// drive the cluster through the real client and so cannot live in
// package core.

// KeyVersions returns the key's version refs, newest first.
func (n *Node) KeyVersions(key string) (refs []store.VersionRef) {
	x := n.indexFor(n.shardOf(key))
	for e := x.Highest(key); e != nil; e = x.Older(e) {
		refs = append(refs, e.Ref())
	}
	return refs
}

// OpenMoves returns the number of open move windows.
func (n *Node) OpenMoves() int { return len(n.moving) }
