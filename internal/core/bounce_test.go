package core

import (
	"fmt"
	"testing"
	"time"

	"ring/internal/proto"
)

// bounced is node 0 of a one-shard cluster of two Rep(2,1) memgests and
// a spare, driven one message at a time with no runner and no timer:
// the test plays the client, the replica (node 1) and the leader, and
// reads what each message made the node send.
type bounced struct {
	t    *testing.T
	cfg  *proto.Config
	node *Node
	now  time.Duration
}

const (
	bounceClient  = "client/t"
	bounceReplica = "node/1"
)

func (b *bounced) in(from string, m proto.Message) []Out {
	b.now += time.Millisecond
	return b.node.deliver(b.now, from, m)
}

// sent returns the first message of type T among outs.
func sent[T proto.Message](t *testing.T, outs []Out) T {
	t.Helper()
	for _, o := range outs {
		if m, ok := o.Msg.(T); ok {
			return m
		}
	}
	var none T
	t.Fatalf("the node sent no %T: %s", none, describe(outs))
	return none
}

func describe(outs []Out) string {
	s := ""
	for _, o := range outs {
		if r, ok := o.Msg.(proto.Reply); ok {
			s += fmt.Sprintf(" %T(req %d, %v) to %s;", r, r.Request(), r.Result(), o.To)
		} else {
			s += fmt.Sprintf(" %T to %s;", o.Msg, o.To)
		}
	}
	if s == "" {
		return "nothing"
	}
	return s
}

// put commits key's next version in memgest 1.
func (b *bounced) put(req proto.ReqID, key, val string) {
	b.t.Helper()
	a := sent[*proto.RepAppend](b.t, b.in(bounceClient, &proto.Put{Req: req, Key: key, Value: []byte(val), Memgest: 1}))
	ack := &proto.RepAck{Memgest: a.Memgest, Shard: a.Shard, Seq: a.Seq}
	if r := sent[*proto.PutReply](b.t, b.in(bounceReplica, ack)); r.Req != req || r.Status != proto.StOK {
		b.t.Fatalf("put %d answered req %d %v", req, r.Req, r.Status)
	}
}

// lose drops the coordinator's copy of a version's bytes, as a failover
// does until recovery fetches them back.
func (b *bounced) lose(key string, ver proto.Version) {
	t := b.node.mg[1].coord[0].meta
	t.Hold(t.Get(key, ver), nil)
}

// lostRole parks m on the want for a lost value, then hands the shard
// to the spare.
func lostRole(m proto.Message) func(*bounced) []Out {
	return func(b *bounced) []Out {
		b.put(1, "k", "v1")
		b.lose("k", 1)
		sent[*proto.Fetch](b.t, b.in(bounceClient, m))
		next := b.cfg.Clone()
		next.Epoch, next.Leader, next.Coords, next.Spares = 2, 1, []proto.NodeID{2}, []proto.NodeID{0}
		return b.in(bounceReplica, &proto.ConfigPush{Config: next})
	}
}

// rejoin delivers m to a node that restarted and is not re-admitted yet.
func rejoin(m proto.Message) func(*bounced) []Out {
	return func(b *bounced) []Out {
		b.node = NewRejoining(0, b.cfg.Clone(), Options{})
		return b.in(bounceClient, m)
	}
}

// TestEveryBounceAnswersRetry pins each path that gives a request back
// instead of serving it: a request held on a want, an uncommitted entry
// or a node that cannot serve yet is answered StRetry, in the reply its
// client waits for, when the node lets go of it. Drop any one of these
// answers and the client waits out its timeout instead (for a get sent
// to a rejoining node, forever); answer a purged get StNotFound and a
// key that has a newer version reads as absent.
func TestEveryBounceAnswersRetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run drives the node until it lets go of request 9 and returns
		// what it sent then.
		run  func(b *bounced) []Out
		want proto.Reply
	}{
		{"get of a version purged while it waited on a want", func(b *bounced) []Out {
			b.put(1, "k", "v1")
			b.lose("k", 1)
			fetch := sent[*proto.Fetch](b.t, b.in(bounceClient, &proto.Get{Req: 9, Key: "k"})).Req
			b.put(2, "k", "v2") // commits version 2 and purges version 1
			return b.in(bounceReplica, &proto.FetchReply{Req: fetch, Status: proto.StOK, Data: []byte("v1")})
		}, &proto.GetReply{}},
		{"get on the want of a role the node lost", lostRole(&proto.Get{Req: 9, Key: "k"}), &proto.GetReply{}},
		{"move on the want of a role the node lost", lostRole(&proto.Move{Req: 9, Key: "k", Memgest: 2}), &proto.PutReply{}},
		{"get of an aborted window's destination version", func(b *bounced) []Out {
			b.put(1, "k", "v1")
			// The move's append is never acked: its window stays open,
			// and the get parks on its uncommitted version 2.
			sent[*proto.RepAppend](b.t, b.in(bounceClient, &proto.Move{Req: 2, Key: "k", Memgest: 2}))
			b.in(bounceClient, &proto.Get{Req: 9, Key: "k"})
			next := b.cfg.Clone()
			next.Epoch++ // a configuration change replans the window
			return b.in(bounceReplica, &proto.ConfigPush{Config: next})
		}, &proto.GetReply{}},
		{"put to a rejoining node", rejoin(&proto.Put{Req: 9, Key: "k", Value: []byte("v"), Memgest: 1}), &proto.PutReply{}},
		{"get from a rejoining node", rejoin(&proto.Get{Req: 9, Key: "k"}), &proto.GetReply{}},
		{"delete at a rejoining node", rejoin(&proto.Delete{Req: 9, Key: "k"}), &proto.PutReply{}},
		{"move at a rejoining node", rejoin(&proto.Move{Req: 9, Key: "k", Memgest: 2}), &proto.PutReply{}},
		{"reconfig at a rejoining node", rejoin(&proto.Reconfig{Req: 9, Op: proto.ReconfigJoin, Node: 2}), &proto.ReconfigReply{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := BootConfig(ClusterSpec{
				Shards: 1, Redundant: 1, Spares: 1,
				Memgests: []proto.Scheme{proto.Rep(2, 1), proto.Rep(2, 1)},
			})
			if err != nil {
				t.Fatal(err)
			}
			b := &bounced{t: t, cfg: cfg, node: New(0, cfg.Clone(), Options{})}
			outs := tc.run(b)
			for _, o := range outs {
				if r, ok := o.Msg.(proto.Reply); ok && o.To == bounceClient && r.Request() == 9 {
					if fmt.Sprintf("%T", r) != fmt.Sprintf("%T", tc.want) || r.Result() != proto.StRetry {
						t.Fatalf("request 9 answered %T %v, want %T %v", r, r.Result(), tc.want, proto.StRetry)
					}
					return
				}
			}
			t.Fatalf("request 9 not answered; the node sent %s", describe(outs))
		})
	}
}
