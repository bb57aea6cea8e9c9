package client

import "ring/internal/proto"

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
		return 0, errNoConfig
	}
	total := 0
	seen := make(map[proto.NodeID]bool)
	for _, id := range cfg.Coords {
		if seen[id] {
			continue
		}
		seen[id] = true
		r, err := do[*proto.MoveReply](c, toNode(id), func(req proto.ReqID) proto.Message {
			return &proto.Move{Req: req, Key: prefix, Memgest: to, From: from, Prefix: true}
		})
		if err == nil {
			err = r.Status.Err()
		}
		if err != nil {
			return total, err
		}
		total += int(r.Moved)
	}
	return total, nil
}

// resize runs one membership change and, when the leader answered,
// refreshes the configuration it produced.
func (c *Client) resize(op proto.ResizeOp, node proto.NodeID) (*proto.ResizeReply, error) {
	r, err := leaderOp[*proto.ResizeReply](c, func(req proto.ReqID) proto.Message {
		return &proto.Resize{Req: req, Op: op, Node: node}
	})
	if err == nil {
		_ = c.resolve(nil)
	}
	return r, err
}

// ResizeJoin admits node into the cluster as a spare (quarantine-then-
// announce: the node must be running and rejoining). Idempotent.
// Returns the epoch of the configuration that includes the node.
func (c *Client) ResizeJoin(node proto.NodeID) (proto.Epoch, error) {
	r, err := c.resize(proto.ResizeJoin, node)
	if err != nil {
		return 0, err
	}
	return r.Epoch, r.Status.Err()
}

// ResizeLeave gracefully removes node: the leader fences it behind a
// configuration that excludes it, substitutes a spare into its roles,
// and announces cluster-wide once the fence acks. Returns the number
// of placement slots that actually moved (the minimal-movement
// metric) and the new epoch.
func (c *Client) ResizeLeave(node proto.NodeID) (int, proto.Epoch, error) {
	r, err := c.resize(proto.ResizeLeave, node)
	if err != nil {
		return 0, 0, err
	}
	return int(r.Moved), r.Epoch, r.Status.Err()
}
