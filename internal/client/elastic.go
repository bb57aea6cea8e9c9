package client

import "ring/internal/proto"

// MovePrefix bulk-moves every key matching prefix into memgest to
// (from as in MoveIf). A coordinator only moves the keys of shards it
// owns, so the client fans the request out to every distinct
// coordinator and sums the per-node counts. Returns the number of keys
// moved (partial on error: coordinators already answered have moved
// their keys).
func (c *Client) MovePrefix(prefix string, from, to proto.MemgestID) (int, error) {
	total := 0
	seen := make(map[proto.NodeID]bool)
	for _, id := range c.Config().Coords {
		if seen[id] {
			continue
		}
		seen[id] = true
		k := c.newCall(toNode, "")
		k.node = id
		r, err := do[*proto.PutReply](k, func(_ *call, req proto.ReqID) proto.Message {
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

// ResizeJoin admits node into the cluster as a spare (quarantine-then-
// announce: the node must be running and rejoining). Idempotent.
// Returns the epoch of the configuration that includes the node.
func (c *Client) ResizeJoin(node proto.NodeID) (proto.Epoch, error) {
	r, err := c.reconfig(proto.Reconfig{Op: proto.ReconfigJoin, Node: node})
	return r.Epoch, err
}

// ResizeLeave gracefully removes node: the leader fences it behind a
// configuration that excludes it, substitutes a spare into its roles,
// and announces cluster-wide once the fence acks. Returns the number
// of placement slots that actually moved (the minimal-movement
// metric) and the new epoch.
func (c *Client) ResizeLeave(node proto.NodeID) (int, proto.Epoch, error) {
	r, err := c.reconfig(proto.Reconfig{Op: proto.ReconfigLeave, Node: node})
	return int(r.Moved), r.Epoch, err
}
