package client

import (
	"time"

	"ring/internal/proto"
)

// Session is the client's protocol logic with no I/O, clock, goroutine
// or lock, as core.Node is a node's: the view, ReqIDs, the table of
// operations in flight and each operation's attempts (Section 5.5). An
// attempt unanswered after Timeout is resent at once; after a transient
// answer (one Done does not take, or a lost packet) the n-th resend
// waits min(Timeout/4, n×10ms). Every resend follows a Resolve to the
// next node of the view, whose answer replaces the view unless older.
// Client drives a Session over a fabric, package sim over its own.
//
// An operation has one ReqID, which every attempt resends: the table
// holds one entry per unsettled operation, and settling takes it out.
// A Resolve never enters it.
type Session struct {
	sink    Sink
	timeout time.Duration
	retries int
	view    *proto.Config
	nextReq proto.ReqID
	pending map[proto.ReqID]Op
	rr      int
}

// Sink takes a Session's outputs in order: sends, and wake-ups to hand
// back to Wake at w.At.
type Sink interface {
	Send(to proto.NodeID, req proto.ReqID, msg proto.Message)
	At(w Wake)
}

// Op is one operation, possibly of several attempts, embedding the
// OpState the session keeps. Build makes one attempt's message, and its
// target, from the view of the moment. Done receives a reply to ANY
// attempt (each falls inside the operation's real-time window) and
// reports whether it settles the operation; nil says the budget ran
// out, and the operation may or may not have taken effect.
type Op interface {
	Build(view *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message)
	Done(now time.Duration, r proto.Reply) bool
	state() *OpState
}

// OpState is what the session keeps of an Op. An Op may start again
// once settled, when none of its wake-ups is still to come.
type OpState struct {
	attempts int // resends so far
	settled  bool
	req      proto.ReqID
}

func (o *OpState) state() *OpState { return o }

// Wake is a wake-up of Op: its attempt's timeout, or a back-off.
type Wake struct {
	Op      Op
	At      time.Duration
	Timeout bool
	attempt int // the attempt it was armed in; a later one makes it stale
}

// NewSession returns a session over view (nil until Ask is answered);
// with a zero timeout nothing is resent.
func NewSession(sink Sink, view *proto.Config, timeout time.Duration, retries int) *Session {
	return &Session{sink: sink, view: view, timeout: timeout, retries: retries, pending: make(map[proto.ReqID]Op)}
}

// View returns the session's view of the cluster.
func (s *Session) View() *proto.Config { return s.view }

// Adopt makes a copy of cfg the view unless cfg is older.
func (s *Session) Adopt(cfg *proto.Config) {
	if cfg != nil && (s.view == nil || cfg.Epoch >= s.view.Epoch) {
		s.view = cfg.Clone()
	}
}

// Start mints op's ReqID, files op under it and sends the first attempt.
func (s *Session) Start(now time.Duration, op Op) {
	st := op.state()
	st.attempts, st.settled, st.req = 0, false, s.mint()
	s.pending[st.req] = op
	s.attempt(now, op)
}

// Reply adopts the view in a Resolve's answer, or hands r to the
// operation it answers. A ReqID not in the table (a duplicate, a
// settled operation's, an earlier life's) is dropped.
func (s *Session) Reply(now time.Duration, r proto.Reply) {
	if rr, ok := r.(*proto.ResolveReply); ok {
		s.Adopt(rr.Config)
		return
	}
	switch op, ok := s.pending[r.Request()]; {
	case !ok:
	case op.Done(now, r):
		s.settle(op)
	default:
		s.backOff(now, op)
	}
}

// Failed says the packet carrying req did not leave.
func (s *Session) Failed(now time.Duration, req proto.ReqID) {
	if op, ok := s.pending[req]; ok {
		s.backOff(now, op)
	}
}

// Wake resends w.Op after a Resolve, or with its budget spent settles
// it with Done(nil), unless it settled or moved on since w was armed.
func (s *Session) Wake(now time.Duration, w Wake) {
	st := w.Op.state()
	if st.settled || st.attempts != w.attempt {
		return
	}
	if st.attempts++; st.attempts > s.retries {
		s.settle(w.Op)
		w.Op.Done(now, nil)
		return
	}
	if ids := s.view.AllNodes(); len(ids) > 0 {
		m := s.Ask()
		s.sink.Send(ids[s.rr%len(ids)], m.Req, m)
		s.rr++
	}
	s.attempt(now, w.Op)
}

// Ask mints a Resolve for the driver to send; its answer is adopted
// like that of the Resolve before a resend.
func (s *Session) Ask() *proto.Resolve { return &proto.Resolve{Req: s.mint()} }

func (s *Session) mint() proto.ReqID {
	s.nextReq++
	return s.nextReq
}

func (s *Session) attempt(now time.Duration, op Op) {
	req := op.state().req
	to, msg := op.Build(s.view, req)
	s.sink.Send(to, req, msg)
	s.arm(now+s.timeout, op, true)
}

func (s *Session) settle(op Op) {
	st := op.state()
	st.settled = true
	delete(s.pending, st.req)
}

func (s *Session) backOff(now time.Duration, op Op) {
	n := time.Duration(op.state().attempts + 1)
	s.arm(now+min(s.timeout/4, n*10*time.Millisecond), op, false)
}

func (s *Session) arm(at time.Duration, op Op, timeout bool) {
	if s.timeout > 0 {
		s.sink.At(Wake{Op: op, At: at, Timeout: timeout, attempt: op.state().attempts})
	}
}

// OpFuncs makes an Op of its two functions.
func OpFuncs(build func(*proto.Config, proto.ReqID) (proto.NodeID, proto.Message), done func(time.Duration, proto.Reply) bool) Op {
	return &funcOp{build: build, done: done}
}

type funcOp struct {
	OpState
	build func(*proto.Config, proto.ReqID) (proto.NodeID, proto.Message)
	done  func(time.Duration, proto.Reply) bool
}

func (o *funcOp) Build(v *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message) {
	return o.build(v, req)
}

func (o *funcOp) Done(now time.Duration, r proto.Reply) bool { return o.done(now, r) }
