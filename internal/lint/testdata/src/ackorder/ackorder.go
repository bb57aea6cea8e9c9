// Fixture for the ackorder analyzer: self-contained stand-ins for the
// core protocol vocabulary (send, Tracker, persist*, *Reply/*Ack
// message types, StOK) so the analyzer's naming conventions bind
// without importing ring packages.
package ackorder

type Status int

const (
	StOK Status = iota
	StErr
)

type PutReply struct {
	Req    uint64
	Status Status
}

type MoveReply struct {
	Status Status
}

// RepAck has no Status field: every emission of it is a success ack.
type RepAck struct{ Seq uint64 }

// Probe does not end in Reply/Ack and is never an ack.
type Probe struct{ Seq uint64 }

type Tracker struct{ need int }

func (t *Tracker) Open(seq uint64, need int) {}
func (t *Tracker) Ack(seq uint64, from int) bool {
	t.need--
	return t.need == 0
}

type Node struct {
	tr  Tracker
	log []uint64
}

func (n *Node) send(to int, m interface{}) {}

func (n *Node) persistAppend(seq uint64) error {
	n.log = append(n.log, seq)
	return nil
}

func (n *Node) quorumAcks() int { return 2 }

func unlucky() bool { return false }

// ---------------------------------------------------------------- clean

// handleClean passes both barriers before any emission: the zero-need
// fast path acks only after persistAppend and quorumAcks have run.
//
//ring:handler
func (n *Node) handleClean(req uint64) {
	if err := n.persistAppend(req); err != nil {
		n.send(0, &PutReply{Req: req, Status: StErr}) // error reply: not an ack
		return
	}
	need := n.quorumAcks()
	if need == 0 {
		n.send(0, &PutReply{Req: req, Status: StOK})
		return
	}
	n.tr.Open(req, need)
}

// persistVia passes the persist barrier on every path, so calling it
// counts as persisting.
func (n *Node) persistVia(req uint64) {
	if err := n.persistAppend(req); err != nil {
		panic(err)
	}
}

// handleCleanViaHelper persists through a helper before acking.
//
//ring:handler persist
func (n *Node) handleCleanViaHelper(req uint64) {
	n.persistVia(req)
	n.send(0, &PutReply{Req: req, Status: StOK})
}

// handleProbe emits a non-reply message before the barrier: fine.
//
//ring:handler persist
func (n *Node) handleProbe(req uint64) {
	n.send(1, &Probe{Seq: req})
	n.persistVia(req)
}

// ---------------------------------------------------------------- bare acks

// handleEarlyAck acks before persisting: the bug class.
//
//ring:handler persist
func (n *Node) handleEarlyAck(req uint64) {
	n.send(0, &PutReply{Req: req, Status: StOK}) // want "emits PutReply before its persist barrier"
	n.persistVia(req)
}

// handleBranchAck misses the persist barrier on one branch.
//
//ring:handler persist
func (n *Node) handleBranchAck(req uint64) {
	if unlucky() {
		n.send(0, &PutReply{Req: req, Status: StOK}) // want "emits PutReply before its persist barrier"
		return
	}
	n.persistVia(req)
	n.send(0, &PutReply{Req: req, Status: StOK})
}

// handleStatusless acks with a status-free message before persisting:
// without a Status field every emission is a success.
//
//ring:handler persist
func (n *Node) handleStatusless(req uint64) {
	n.send(1, &RepAck{Seq: req}) // want "emits RepAck before its persist barrier"
	n.persistVia(req)
}

// handleNoQuorum persists but never opens quorum bookkeeping before
// acking; only the quorum class fires.
//
//ring:handler
func (n *Node) handleNoQuorum(req uint64) {
	n.persistVia(req)
	n.send(0, &PutReply{Req: req, Status: StOK}) // want "emits PutReply before its quorum barrier"
	n.tr.Open(req, 2)
}

// ---------------------------------------------------------------- interproc

// ackEarly emits an unconditional success reply; it is itself entered
// bare from handleViaHelper, so the emission is reported here too (a
// report at each link of the chain is the designed behavior).
func (n *Node) ackEarly(to int, req uint64) {
	n.send(to, &PutReply{Req: req, Status: StOK}) // want "emits PutReply before its quorum barrier"
}

//ring:handler quorum
func (n *Node) handleViaHelper(req uint64) {
	n.ackEarly(0, req) // want "can emit a reply through ackEarly before its quorum barrier"
	n.tr.Open(req, 2)
}

// reply forwards its status argument into the emission; whether it
// acks is decided at each call site.
func (n *Node) reply(to int, req uint64, s Status) {
	n.send(to, &PutReply{Req: req, Status: s})
}

//ring:handler persist
func (n *Node) handleForwarded(req uint64) {
	if unlucky() {
		n.reply(0, req, StErr) // error at the call site: not an ack
		return
	}
	n.reply(0, req, StOK) // want "emits a success reply via reply before its persist barrier"
	n.persistVia(req)
}

// ---------------------------------------------------------------- exemption

// handleChaos mirrors the deliberate ChaosUnsafeAck injection site:
// the directive keeps the suite green and greppable.
//
//ring:handler persist
func (n *Node) handleChaos(req uint64) {
	n.send(0, &PutReply{Req: req, Status: StOK}) //ring:ackok deliberate unsafe-ack injection
	n.persistVia(req)
}
