package sim

import (
	"fmt"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/store"
)

// Client is a simulated Ring client: it routes by key hash like the
// real client and correlates replies, but lives inside the event loop.
type Client struct {
	sim     *Sim
	addr    string
	cfg     *proto.Config
	nextReq proto.ReqID
	pending map[proto.ReqID]pendingOp
}

type pendingOp struct {
	sentAt time.Duration
	done   func(latency time.Duration, reply proto.Message)
}

// NewClient registers a simulated client on the fabric.
func NewClient(s *Sim, name string, cfg *proto.Config) *Client {
	c := &Client{
		sim:     s,
		addr:    "client/" + name,
		cfg:     cfg,
		nextReq: 1,
		pending: make(map[proto.ReqID]pendingOp),
	}
	s.RegisterClient(c.addr, c.onMessage)
	return c
}

// Addr returns the client's fabric address.
func (c *Client) Addr() string { return c.addr }

// SetConfig updates the client's routing view (e.g. after simulated
// failover).
func (c *Client) SetConfig(cfg *proto.Config) { c.cfg = cfg }

func (c *Client) onMessage(now time.Duration, _ string, msg proto.Message) {
	var req proto.ReqID
	switch r := msg.(type) {
	case *proto.PutReply:
		req = r.Req
	case *proto.GetReply:
		req = r.Req
	case *proto.DeleteReply:
		req = r.Req
	case *proto.MoveReply:
		req = r.Req
	case *proto.MemgestReply:
		req = r.Req
	case *proto.ResolveReply:
		req = r.Req
	default:
		return
	}
	op, ok := c.pending[req]
	if !ok {
		return
	}
	delete(c.pending, req)
	if op.done != nil {
		op.done(now-op.sentAt, msg)
	}
}

func (c *Client) coordAddr(key string) string {
	return core.NodeAddr(c.cfg.CoordinatorOf(store.KeyHash(key)))
}

// do sends a request at virtual time `at` and invokes done with the
// measured latency when the reply arrives.
func (c *Client) do(at time.Duration, to string, build func(proto.ReqID) proto.Message, done func(time.Duration, proto.Message)) {
	c.sim.At(at, func(now time.Duration) {
		req := c.nextReq
		c.nextReq++
		c.pending[req] = pendingOp{sentAt: now, done: done}
		c.sim.Send(c.addr, to, build(req))
	})
}

// PutAt schedules a put.
func (c *Client) PutAt(at time.Duration, key string, value []byte, mg proto.MemgestID, done func(time.Duration, *proto.PutReply)) {
	c.do(at, c.coordAddr(key), func(req proto.ReqID) proto.Message {
		return &proto.Put{Req: req, Key: key, Value: value, Memgest: mg}
	}, func(lat time.Duration, m proto.Message) {
		if r, ok := m.(*proto.PutReply); ok && done != nil {
			done(lat, r)
		}
	})
}

// GetAt schedules a get.
func (c *Client) GetAt(at time.Duration, key string, done func(time.Duration, *proto.GetReply)) {
	c.do(at, c.coordAddr(key), func(req proto.ReqID) proto.Message {
		return &proto.Get{Req: req, Key: key}
	}, func(lat time.Duration, m proto.Message) {
		if r, ok := m.(*proto.GetReply); ok && done != nil {
			done(lat, r)
		}
	})
}

// MoveAt schedules a move.
func (c *Client) MoveAt(at time.Duration, key string, mg proto.MemgestID, done func(time.Duration, *proto.MoveReply)) {
	c.do(at, c.coordAddr(key), func(req proto.ReqID) proto.Message {
		return &proto.Move{Req: req, Key: key, Memgest: mg}
	}, func(lat time.Duration, m proto.Message) {
		if r, ok := m.(*proto.MoveReply); ok && done != nil {
			done(lat, r)
		}
	})
}

// PutSync performs a put and runs the simulation until it completes,
// returning the latency. Only valid when no other traffic is pending.
func (c *Client) PutSync(key string, value []byte, mg proto.MemgestID) (time.Duration, *proto.PutReply, error) {
	var lat time.Duration
	var reply *proto.PutReply
	c.PutAt(c.sim.Now(), key, value, mg, func(l time.Duration, r *proto.PutReply) {
		lat, reply = l, r
	})
	for reply == nil && c.sim.Step() {
	}
	if reply == nil {
		return 0, nil, fmt.Errorf("sim: put %q got no reply", key)
	}
	return lat, reply, nil
}

// GetSync performs a get synchronously.
func (c *Client) GetSync(key string) (time.Duration, *proto.GetReply, error) {
	var lat time.Duration
	var reply *proto.GetReply
	c.GetAt(c.sim.Now(), key, func(l time.Duration, r *proto.GetReply) {
		lat, reply = l, r
	})
	for reply == nil && c.sim.Step() {
	}
	if reply == nil {
		return 0, nil, fmt.Errorf("sim: get %q got no reply", key)
	}
	return lat, reply, nil
}

// MoveSync performs a move synchronously.
func (c *Client) MoveSync(key string, mg proto.MemgestID) (time.Duration, *proto.MoveReply, error) {
	var lat time.Duration
	var reply *proto.MoveReply
	c.MoveAt(c.sim.Now(), key, mg, func(l time.Duration, r *proto.MoveReply) {
		lat, reply = l, r
	})
	for reply == nil && c.sim.Step() {
	}
	if reply == nil {
		return 0, nil, fmt.Errorf("sim: move %q got no reply", key)
	}
	return lat, reply, nil
}
