package client

import (
	"slices"
	"testing"
	"time"

	"ring/internal/proto"
)

// script is a Sink that records what a session emits, for a test to
// answer and to deliver.
type script struct {
	now      time.Duration // of the input being run
	sent     []sent
	answered int             // of sent, by run
	wakes    []Wake          // armed and not yet delivered
	backOffs []time.Duration // how far out each back-off was armed
}

type sent struct {
	at  time.Duration
	req proto.ReqID
	msg proto.Message
}

func (sc *script) Send(_ proto.NodeID, req proto.ReqID, msg proto.Message) {
	sc.sent = append(sc.sent, sent{sc.now, req, msg})
}

func (sc *script) At(w Wake) {
	sc.wakes = append(sc.wakes, w)
	if !w.Timeout {
		sc.backOffs = append(sc.backOffs, w.At-sc.now)
	}
}

// run plays the session against a peer from the time of the last
// input: each send not yet answered is answered at once with what
// answer returns (nil: nothing), and the wake-ups are delivered in time
// order, the first armed first, until none is left.
func (sc *script) run(s *Session, answer func(m proto.Message) proto.Reply) {
	for {
		for ; sc.answered < len(sc.sent); sc.answered++ {
			if r := answer(sc.sent[sc.answered].msg); r != nil {
				s.Reply(sc.now, r)
			}
		}
		if len(sc.wakes) == 0 {
			return
		}
		i := 0
		for j, w := range sc.wakes {
			if w.At < sc.wakes[i].At {
				i = j
			}
		}
		w := sc.wakes[i]
		sc.wakes = slices.Delete(sc.wakes, i, i+1)
		sc.now = w.At
		s.Wake(sc.now, w)
	}
}

// count is how many of the messages sent since from are of type T.
func count[T proto.Message](sc *script, from int) (n int) {
	for _, m := range sc.sent[from:] {
		if _, ok := m.msg.(T); ok {
			n++
		}
	}
	return n
}

func view(epoch proto.Epoch, leader proto.NodeID) *proto.Config {
	return &proto.Config{Epoch: epoch, Leader: leader, Coords: []proto.NodeID{9}}
}

// resolved answers every Resolve with cfg, and nothing else.
func resolved(cfg *proto.Config) func(proto.Message) proto.Reply {
	return func(m proto.Message) proto.Reply {
		if r, ok := m.(*proto.Resolve); ok {
			return &proto.ResolveReply{Req: r.Req, Config: cfg}
		}
		return nil
	}
}

// join is an operation sent to the leader that takes any answer but a
// transient one, appending it to outcomes (nil: abandoned).
func join(outcomes *[]proto.Reply) Op {
	return OpFuncs(func(cfg *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message) {
		return cfg.Leader, &proto.Reconfig{Req: req, Op: proto.ReconfigJoin, Node: 4}
	}, func(_ time.Duration, r proto.Reply) bool {
		if r != nil && r.Result().Transient() {
			return false
		}
		*outcomes = append(*outcomes, r)
		return true
	})
}

// TestSessionBudgetLateRepliesAndView: an operation nobody answers is
// abandoned exactly once after its attempt budget, with a Resolve
// before every resend; replies that arrive for it afterwards are
// ignored; a Resolve answer older than the view is ignored and a newer
// one adopted; and a ReconfigReply reaches its operation like any other
// reply.
func TestSessionBudgetLateRepliesAndView(t *testing.T) {
	const peer = proto.NodeID(9)
	sc := &script{}
	s := NewSession(sc, view(5, peer), time.Millisecond, 3)
	var outcomes []proto.Reply

	s.Start(0, join(&outcomes))
	sc.run(s, resolved(view(3, 8)))
	if n, r := count[*proto.Reconfig](sc, 0), count[*proto.Resolve](sc, 0); n != 4 || r != 3 {
		t.Fatalf("%d attempts and %d resolves, want the first try plus 3 resends, a Resolve before each", n, r)
	}
	if len(outcomes) != 1 || outcomes[0] != nil {
		t.Fatalf("outcomes %v, want the operation abandoned exactly once", outcomes)
	}
	if v := s.View(); v.Epoch != 5 || v.Leader != peer {
		t.Fatalf("view is epoch %d leader %d: an epoch-3 answer replaced the epoch-5 view", v.Epoch, v.Leader)
	}

	for _, m := range sc.sent {
		s.Reply(sc.now, &proto.ReconfigReply{Req: m.req, Status: proto.StOK})
	}
	if len(outcomes) != 1 {
		t.Fatalf("a late reply to an abandoned operation was delivered: %v", outcomes[1:])
	}

	// A transient answer, then success: the resend follows a Resolve
	// that now reports a newer epoch, and the ReconfigReply is delivered.
	from, attempts := len(sc.sent), 0
	s.Start(sc.now, join(&outcomes))
	sc.run(s, func(m proto.Message) proto.Reply {
		r, ok := m.(*proto.Reconfig)
		if !ok {
			return resolved(view(6, peer))(m)
		}
		if attempts++; attempts == 1 {
			return &proto.ReconfigReply{Req: r.Req, Status: proto.StRetry}
		}
		return &proto.ReconfigReply{Req: r.Req, Status: proto.StOK, Epoch: 7}
	})
	if attempts != 2 || count[*proto.Resolve](sc, from) != 1 || len(outcomes) != 2 {
		t.Fatalf("%d attempts, %d outcomes; want one resend, after a Resolve, after StRetry and one more outcome", attempts, len(outcomes))
	}
	if rr, ok := outcomes[1].(*proto.ReconfigReply); !ok || rr.Status != proto.StOK || rr.Epoch != 7 {
		t.Fatalf("second operation ended with %#v, want the peer's ReconfigReply", outcomes[1])
	}
	if s.View().Epoch != 6 {
		t.Fatalf("view is epoch %d after a Resolve answered epoch 6", s.View().Epoch)
	}
}

// TestSessionBackOff pins min(Timeout/4, n×10ms) as the pause between a
// transient answer and the n-th resend: a quarter of the simulator's
// millisecond timeouts every time, 10, 20 and 30 ms under the live
// client's 2 s.
func TestSessionBackOff(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	for _, tc := range []struct {
		timeout time.Duration
		want    []time.Duration
	}{
		{3 * ms, []time.Duration{750 * us, 750 * us, 750 * us}},
		{2 * time.Second, []time.Duration{10 * ms, 20 * ms, 30 * ms}},
	} {
		sc := &script{}
		s := NewSession(sc, view(1, 9), tc.timeout, 2)
		var outcomes []proto.Reply
		s.Start(0, join(&outcomes))
		sc.run(s, func(m proto.Message) proto.Reply {
			if r, ok := m.(*proto.Reconfig); ok {
				return &proto.ReconfigReply{Req: r.Req, Status: proto.StUnavailable}
			}
			return resolved(view(1, 9))(m)
		})
		if !slices.Equal(sc.backOffs, tc.want) {
			t.Errorf("Timeout %v: back-offs %v, want %v", tc.timeout, sc.backOffs, tc.want)
		}
		if len(outcomes) != 1 || outcomes[0] != nil {
			t.Errorf("Timeout %v: outcomes %v, want the operation abandoned after the third back-off", tc.timeout, outcomes)
		}
	}
}

// TestSessionPendingBound: a reply settles the operation whose attempt
// it answers and takes every attempt of that operation out of the
// table; an abandoned operation leaves nothing behind; and a Resolve
// nobody answers is dropped once it is older than Retries+1 Timeouts,
// before the next request is filed.
func TestSessionPendingBound(t *testing.T) {
	const timeout, retries = time.Millisecond, 2
	sc := &script{}
	s := NewSession(sc, view(1, 9), timeout, retries)
	var a, b []proto.Reply

	// Two operations in flight, the first on its third attempt.
	s.Start(0, join(&a))
	first := sc.sent[0].req
	for i := 0; i < 2; i++ {
		w := sc.wakes[len(sc.wakes)-1]
		sc.now = w.At
		s.Wake(sc.now, w)
	}
	s.Start(sc.now, join(&b))
	if n := len(s.pending); n != 3+2+1 {
		t.Fatalf("%d requests in the table, want 3 attempts, 2 Resolves and 1 attempt", n)
	}
	s.Reply(sc.now, &proto.ReconfigReply{Req: first, Status: proto.StOK})
	if len(a) != 1 || len(b) != 0 {
		t.Fatalf("a reply to the first operation's first attempt settled %d of it and %d of the second", len(a), len(b))
	}
	if n := len(s.pending); n != 2+1 {
		t.Fatalf("%d requests in the table after the first operation settled, want its 2 Resolves and the second's attempt", n)
	}

	// The second runs out of attempts; its Resolves go unanswered.
	sc.wakes = sc.wakes[len(sc.wakes)-1:]
	sc.run(s, func(proto.Message) proto.Reply { return nil })
	if len(b) != 1 || b[0] != nil {
		t.Fatalf("second operation ended with %v, want it abandoned", b)
	}
	if n, r := len(s.pending), count[*proto.Resolve](sc, 0); n != r || r != 4 {
		t.Fatalf("%d requests in the table after both ended, want the %d unanswered Resolves alone", n, r)
	}
	var last sent
	for _, m := range sc.sent {
		if _, ok := m.msg.(*proto.Resolve); ok {
			last = m
		}
	}
	s.Start(last.at+(retries+1)*timeout, join(&a))
	if _, ok := s.pending[last.req]; !ok || len(s.pending) != 2 {
		t.Fatalf("%d requests in the table, want the last Resolve, as old as the budget, and the new attempt", len(s.pending))
	}
	s.Start(last.at+(retries+1)*timeout+1, join(&a))
	if _, ok := s.pending[last.req]; ok || len(s.pending) != 2 {
		t.Fatalf("%d requests in the table, want only the two new attempts: every Resolve is older than the budget", len(s.pending))
	}
}

// TestSessionFailedIsTransient: a packet that did not leave is a
// transient answer — a back-off, not a wait for the timeout, and not an
// answer the operation sees — and a Resolve lost that way leaves the
// table.
func TestSessionFailedIsTransient(t *testing.T) {
	sc := &script{}
	s := NewSession(sc, view(1, 9), 2*time.Second, 8)
	var outcomes []proto.Reply
	s.Start(0, join(&outcomes))
	s.Failed(0, sc.sent[0].req)
	if len(outcomes) != 0 {
		t.Fatalf("the operation saw %v for a packet that did not leave", outcomes)
	}
	w := sc.wakes[len(sc.wakes)-1]
	if w.Timeout || w.At != 10*time.Millisecond {
		t.Fatalf("armed %+v, want the first back-off, 10ms out", w)
	}
	sc.now = w.At
	s.Wake(sc.now, w)
	resolve, resend := sc.sent[1], sc.sent[2]
	if _, ok := resolve.msg.(*proto.Resolve); !ok || resend.msg.Type() != proto.TReconfig {
		t.Fatalf("after the back-off sent %T then %T, want a Resolve then the resend", resolve.msg, resend.msg)
	}
	s.Failed(sc.now, resolve.req)
	if _, ok := s.pending[resolve.req]; ok {
		t.Fatal("a Resolve whose packet did not leave stayed in the table")
	}
	s.Reply(sc.now, &proto.ReconfigReply{Req: resend.req, Status: proto.StOK})
	if len(outcomes) != 1 || len(s.pending) != 0 {
		t.Fatalf("outcomes %v, %d requests in the table; want the resend's answer and an empty table", outcomes, len(s.pending))
	}
}
