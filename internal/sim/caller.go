package sim

import (
	"time"

	"ring/internal/core"
	"ring/internal/proto"
)

// caller is the simulator's one client request path. It owns a client
// address on the fabric, the routing view, ReqID allocation and the
// pending table, and — given an attempt budget — the Section 5.5
// fallback of the real client library: a per-attempt timer, a short
// back-off after a transient status, and a round-robin Resolve before
// every resend. Its three users (Client, the chaos workload, the
// elasticity agent) only say what to send and what a reply means.
type caller struct {
	sim  *Sim
	addr string
	cfg  *proto.Config
	// timeout bounds one attempt and retries the resends after the
	// first; a zero timeout arms no timer at all, so an operation waits
	// for its one reply as long as that takes.
	timeout time.Duration
	retries int

	nextReq proto.ReqID
	// pending maps every request in flight (attempts and Resolves alike)
	// to the handler of its reply, which reports whether the request is
	// over. An attempt's is not until its operation settles: the fabric
	// may deliver a transient answer twice, and each copy backs off.
	pending   map[proto.ReqID]func(now time.Duration, r proto.Reply) bool
	resolveRR int
}

// request makes the message of one attempt and picks its target from
// the view current at that attempt.
type request func(cfg *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message)

// simOp is one logical operation, possibly spanning several attempts.
type simOp struct {
	build request
	// done receives a reply to ANY attempt (each attempt's observation
	// falls inside the operation's real-time window) and reports
	// whether it settles the operation; if not, the caller backs off
	// and resends. A nil reply says the attempt budget ran out: the
	// operation may or may not have taken effect.
	done     func(now time.Duration, r proto.Reply) bool
	attempts int
	settled  bool
}

// newCaller registers a client address on the fabric.
func newCaller(s *Sim, addr string, cfg *proto.Config, timeout time.Duration, retries int) *caller {
	c := &caller{
		sim: s, addr: addr, cfg: cfg, timeout: timeout, retries: retries,
		nextReq: 1,
		pending: make(map[proto.ReqID]func(time.Duration, proto.Reply) bool),
	}
	s.RegisterClient(addr, c.onMessage)
	return c
}

// send allocates the next ReqID, files h under it and sends the request
// build makes for it.
func (c *caller) send(build request, h func(time.Duration, proto.Reply) bool) {
	req := c.nextReq
	c.nextReq++
	c.pending[req] = h
	to, msg := build(c.cfg, req)
	c.sim.Send(c.addr, core.NodeAddr(to), msg)
}

func (c *caller) onMessage(now time.Duration, _ string, msg proto.Message) {
	r, ok := msg.(proto.Reply)
	if !ok {
		return
	}
	// An unknown ReqID is a duplicate, or a reply to a request this
	// address sent in an earlier life.
	if h := c.pending[r.Request()]; h != nil && h(now, r) {
		delete(c.pending, r.Request())
	}
}

// start sends the first attempt of an operation.
func (c *caller) start(now time.Duration, build request, done func(time.Duration, proto.Reply) bool) {
	c.attempt(now, &simOp{build: build, done: done})
}

// attempt sends one try of op and arms its timeout.
func (c *caller) attempt(now time.Duration, op *simOp) {
	c.send(op.build, func(now time.Duration, r proto.Reply) bool {
		switch {
		case op.settled: // a late reply to an operation already over
		case op.done(now, r):
			op.settled = true
		default:
			// Immediate resends against a recovering coordinator just
			// burn attempts.
			c.retryAt(now+c.timeout/4, op)
		}
		return op.settled
	})
	c.retryAt(now+c.timeout, op)
}

// retryAt schedules a resend of op unless, by then, it settled or
// another timer already moved it to a later attempt.
func (c *caller) retryAt(at time.Duration, op *simOp) {
	if c.timeout == 0 {
		return
	}
	att := op.attempts
	c.sim.At(at, func(now time.Duration) {
		if op.settled || op.attempts != att {
			return
		}
		op.attempts++
		if op.attempts > c.retries {
			op.settled = true
			op.done(now, nil)
			return
		}
		c.resolve()
		c.attempt(now, op)
	})
}

// resolve asks the next node (round-robin) for its configuration; an
// answer at least as new as the view replaces it.
func (c *caller) resolve() {
	ids := c.cfg.AllNodes()
	if len(ids) == 0 {
		return
	}
	target := ids[c.resolveRR%len(ids)]
	c.resolveRR++
	c.send(func(_ *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message) {
		return target, &proto.Resolve{Req: req}
	}, func(_ time.Duration, r proto.Reply) bool {
		if rr, ok := r.(*proto.ResolveReply); ok && rr.Config != nil && rr.Config.Epoch >= c.cfg.Epoch {
			c.cfg = rr.Config.Clone()
		}
		return true
	})
}
