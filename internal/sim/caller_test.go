package sim

import (
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
)

// TestCallerBudgetLateRepliesAndView drives the one simulated request
// path against a scripted peer on the fabric: an operation nobody
// answers is abandoned exactly once after its attempt budget, with a
// Resolve before every resend; replies that arrive for it afterwards
// are ignored; a Resolve answer older than the view is ignored and a
// newer one adopted; and a ResizeReply reaches its operation like any
// other reply.
func TestCallerBudgetLateRepliesAndView(t *testing.T) {
	s, _ := newSim(t)
	const peer = proto.NodeID(9) // not a cluster node: only the script answers
	view := func(epoch proto.Epoch, leader proto.NodeID) *proto.Config {
		return &proto.Config{Epoch: epoch, Leader: leader, Coords: []proto.NodeID{peer}}
	}
	var (
		attempts []proto.ReqID
		resolves int
		answer   func(*proto.Resize) proto.Message
		told     = view(3, 8) // what the peer answers Resolve with
	)
	s.RegisterClient(core.NodeAddr(peer), func(_ time.Duration, from string, m proto.Message) {
		var out proto.Message
		switch r := m.(type) {
		case *proto.Resolve:
			resolves++
			out = &proto.ResolveReply{Req: r.Req, Config: told}
		case *proto.Resize:
			attempts = append(attempts, r.Req)
			out = answer(r)
		}
		if out != nil {
			s.Send(core.NodeAddr(peer), from, out)
		}
	})

	c := newCaller(s, "client/t", view(5, peer), time.Millisecond, 3)
	var outcomes []proto.Reply
	join := func() {
		c.start(s.Now(), func(cfg *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message) {
			return cfg.Leader, &proto.Resize{Req: req, Op: proto.ResizeJoin, Node: 4}
		}, func(_ time.Duration, r proto.Reply) bool {
			if r != nil && r.Result().Transient() {
				return false
			}
			outcomes = append(outcomes, r)
			return true
		})
	}

	answer = func(*proto.Resize) proto.Message { return nil }
	join()
	s.RunToQuiescence()
	if len(attempts) != 4 || resolves != 3 {
		t.Fatalf("%d attempts and %d resolves, want the first try plus 3 resends, a Resolve before each", len(attempts), resolves)
	}
	if len(outcomes) != 1 || outcomes[0] != nil {
		t.Fatalf("outcomes %v, want the operation abandoned exactly once", outcomes)
	}
	if c.cfg.Epoch != 5 || c.cfg.Leader != peer {
		t.Fatalf("view is epoch %d leader %d: an epoch-3 answer replaced the epoch-5 view", c.cfg.Epoch, c.cfg.Leader)
	}

	for _, req := range attempts {
		s.Send(core.NodeAddr(peer), c.addr, &proto.ResizeReply{Req: req, Status: proto.StOK})
	}
	s.RunToQuiescence()
	if len(outcomes) != 1 {
		t.Fatalf("a late reply to an abandoned operation was delivered: %v", outcomes[1:])
	}

	// A transient answer, then success: the resend follows a Resolve
	// that now reports a newer epoch, and the ResizeReply is delivered.
	told = view(6, peer)
	answer = func(r *proto.Resize) proto.Message {
		if len(attempts) == 5 {
			return &proto.ResizeReply{Req: r.Req, Status: proto.StRetry}
		}
		return &proto.ResizeReply{Req: r.Req, Status: proto.StOK, Epoch: 7}
	}
	join()
	s.RunToQuiescence()
	if len(attempts) != 6 || len(outcomes) != 2 {
		t.Fatalf("%d attempts, %d outcomes; want one resend after StRetry and one more outcome", len(attempts), len(outcomes))
	}
	if rr, ok := outcomes[1].(*proto.ResizeReply); !ok || rr.Status != proto.StOK || rr.Epoch != 7 {
		t.Fatalf("second operation ended with %#v, want the peer's ResizeReply", outcomes[1])
	}
	if c.cfg.Epoch != 6 {
		t.Fatalf("view is epoch %d after a Resolve answered epoch 6", c.cfg.Epoch)
	}
}
