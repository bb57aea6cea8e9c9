package sim

import (
	"fmt"
	"time"

	"ring/internal/client"
	"ring/internal/proto"
	"ring/internal/store"
)

// Client is a simulated Ring client for the experiments: it routes by
// key hash like the real client and measures each operation's latency,
// but lives inside the event loop and never retries — the experiments
// run without faults, and a resend would be charged to the figure.
type Client struct{ *session }

// NewClient registers a simulated client on the fabric.
func NewClient(s *Sim, name string, cfg *proto.Config) *Client {
	return &Client{newSession(s, "client/"+name, cfg, 0, 0)}
}

// SetConfig updates the client's routing view (e.g. after simulated
// failover) unless cfg is older.
func (c *Client) SetConfig(cfg *proto.Config) { c.Adopt(cfg) }

// do sends a key-routed request at virtual time `at` and invokes done
// with the measured latency when a reply of type R arrives.
func do[R proto.Reply](c *Client, at time.Duration, key string, build func(proto.ReqID) proto.Message, done func(time.Duration, R)) {
	c.sim.At(at, func(sent time.Duration) {
		c.Start(sent, client.OpFuncs(func(cfg *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message) {
			return cfg.CoordinatorOf(store.KeyHash(key)), build(req)
		}, func(now time.Duration, m proto.Reply) bool {
			if r, ok := m.(R); ok && done != nil {
				done(now-sent, r)
			}
			return true
		}))
	})
}

// PutAt schedules a put.
func (c *Client) PutAt(at time.Duration, key string, value []byte, mg proto.MemgestID, done func(time.Duration, *proto.PutReply)) {
	do(c, at, key, func(req proto.ReqID) proto.Message {
		return &proto.Put{Req: req, Key: key, Value: value, Memgest: mg}
	}, done)
}

// GetAt schedules a get.
func (c *Client) GetAt(at time.Duration, key string, done func(time.Duration, *proto.GetReply)) {
	do(c, at, key, func(req proto.ReqID) proto.Message {
		return &proto.Get{Req: req, Key: key}
	}, done)
}

// MoveAt schedules a move.
func (c *Client) MoveAt(at time.Duration, key string, mg proto.MemgestID, done func(time.Duration, *proto.PutReply)) {
	do(c, at, key, func(req proto.ReqID) proto.Message {
		return &proto.Move{Req: req, Key: key, Memgest: mg}
	}, done)
}

// await issues one operation now and runs the simulation until its
// reply arrives. Only valid when no other traffic is pending.
func await[R proto.Reply](c *Client, what, key string, issue func(at time.Duration, done func(time.Duration, R))) (time.Duration, R, error) {
	var lat time.Duration
	var reply R
	got := false
	issue(c.sim.Now(), func(l time.Duration, r R) { lat, reply, got = l, r, true })
	for !got && c.sim.Step() {
	}
	if !got {
		return 0, reply, fmt.Errorf("sim: %s %q got no reply", what, key)
	}
	return lat, reply, nil
}

// PutSync performs a put and returns its latency and reply.
func (c *Client) PutSync(key string, value []byte, mg proto.MemgestID) (time.Duration, *proto.PutReply, error) {
	return await(c, "put", key, func(at time.Duration, done func(time.Duration, *proto.PutReply)) {
		c.PutAt(at, key, value, mg, done)
	})
}

// GetSync performs a get synchronously.
func (c *Client) GetSync(key string) (time.Duration, *proto.GetReply, error) {
	return await(c, "get", key, func(at time.Duration, done func(time.Duration, *proto.GetReply)) {
		c.GetAt(at, key, done)
	})
}

// MoveSync performs a move synchronously.
func (c *Client) MoveSync(key string, mg proto.MemgestID) (time.Duration, *proto.PutReply, error) {
	return await(c, "move", key, func(at time.Duration, done func(time.Duration, *proto.PutReply)) {
		c.MoveAt(at, key, mg, done)
	})
}
