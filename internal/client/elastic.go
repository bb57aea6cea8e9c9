package client

import (
	"fmt"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
)

// MovePrefix bulk-moves every key matching prefix into memgest to
// (from as in MoveIf). A coordinator only moves the keys of shards it
// owns, so the client fans the request out to every distinct
// coordinator and sums the per-node counts. Returns the number of keys
// moved (partial on error: coordinators already answered have moved
// their keys).
func (c *Client) MovePrefix(prefix string, from, to proto.MemgestID) (int, error) {
	Metrics.Requests.Inc()
	cfg := c.Config()
	if cfg == nil || cfg.Shards() == 0 {
		return 0, fmt.Errorf("client: no configuration")
	}
	total := 0
	seen := make(map[proto.NodeID]bool)
	for _, id := range cfg.Coords {
		if seen[id] {
			continue
		}
		seen[id] = true
		var lastErr error
		done := false
		for attempt := 0; attempt <= c.opts.Retries; attempt++ {
			if attempt > 0 {
				Metrics.Retries.Inc()
				_ = c.resolve(nil)
				time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
			}
			req := c.reqID()
			reply, err := c.call(core.NodeAddr(id), req,
				&proto.Move{Req: req, Key: prefix, Memgest: to, From: from, Prefix: true})
			if err != nil {
				lastErr = err
				continue
			}
			r, ok := reply.(*proto.MoveReply)
			if !ok {
				lastErr = fmt.Errorf("client: unexpected reply %T", reply)
				continue
			}
			if retryStatus(r.Status) {
				lastErr = r.Status.Err()
				continue
			}
			if err := r.Status.Err(); err != nil {
				return total, err
			}
			total += int(r.Moved)
			done = true
			break
		}
		if !done {
			if lastErr == nil {
				lastErr = ErrTimeout
			}
			return total, lastErr
		}
	}
	return total, nil
}

// doResize runs a leader-routed membership request.
func (c *Client) doResize(op proto.ResizeOp, node proto.NodeID) (*proto.ResizeReply, error) {
	Metrics.Requests.Inc()
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			Metrics.Retries.Inc()
			_ = c.resolve(nil)
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		to, err := c.leaderAddr()
		if err != nil {
			lastErr = err
			continue
		}
		req := c.reqID()
		reply, err := c.call(to, req, &proto.Resize{Req: req, Op: op, Node: node})
		if err != nil {
			lastErr = err
			continue
		}
		r, ok := reply.(*proto.ResizeReply)
		if !ok {
			lastErr = fmt.Errorf("client: unexpected reply %T", reply)
			continue
		}
		if retryStatus(r.Status) {
			lastErr = r.Status.Err()
			continue
		}
		return r, nil
	}
	if lastErr == nil {
		lastErr = ErrTimeout
	}
	return nil, lastErr
}

// ResizeJoin admits node into the cluster as a spare (quarantine-then-
// announce: the node must be running and rejoining). Idempotent.
// Returns the epoch of the configuration that includes the node.
func (c *Client) ResizeJoin(node proto.NodeID) (proto.Epoch, error) {
	r, err := c.doResize(proto.ResizeJoin, node)
	if err != nil {
		return 0, err
	}
	_ = c.resolve(nil)
	return r.Epoch, r.Status.Err()
}

// ResizeLeave gracefully removes node: the leader fences it behind a
// configuration that excludes it, substitutes a spare into its roles,
// and announces cluster-wide once the fence acks. Returns the number
// of placement slots that actually moved (the minimal-movement
// metric) and the new epoch.
func (c *Client) ResizeLeave(node proto.NodeID) (int, proto.Epoch, error) {
	r, err := c.doResize(proto.ResizeLeave, node)
	if err != nil {
		return 0, 0, err
	}
	_ = c.resolve(nil)
	return int(r.Moved), r.Epoch, r.Status.Err()
}
