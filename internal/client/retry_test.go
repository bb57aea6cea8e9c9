package client

import (
	"sync"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/transport"
)

// fakeNodes registers node/0..n-1 on a fresh MemFabric. Each node hands
// every message it receives to answer (one call at a time) and sends
// back what answer returns; nil leaves the sender without a reply,
// like a dead node whose packets vanish.
func fakeNodes(t *testing.T, n int, answer func(node proto.NodeID, m proto.Message) proto.Message) *transport.MemFabric {
	t.Helper()
	fabric := transport.NewMemFabric(0)
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		id := proto.NodeID(i)
		ep, err := fabric.Register(core.NodeAddr(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		go func() {
			for {
				p, err := ep.Recv()
				if err != nil {
					return
				}
				_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
					m, err := proto.Decode(enc)
					if err != nil {
						return nil
					}
					mu.Lock()
					out := answer(id, m)
					mu.Unlock()
					if out != nil {
						_ = ep.Send(p.From, proto.Encode(out))
					}
					return nil
				})
				transport.ReleaseBuf(p.Payload)
			}
		}()
	}
	return fabric
}

// replyTo builds the reply m is answered with, carrying st.
func replyTo(m proto.Message, st proto.Status) proto.Message {
	switch r := m.(type) {
	case *proto.Put:
		return &proto.PutReply{Req: r.Req, Status: st, Version: 1}
	case *proto.Get:
		return &proto.GetReply{Req: r.Req, Status: st, Version: 1, Value: []byte("v")}
	case *proto.Delete:
		return &proto.PutReply{Req: r.Req, Status: st}
	case *proto.Move:
		return &proto.PutReply{Req: r.Req, Status: st, Version: 1, Moved: 1}
	case *proto.Reconfig:
		return &proto.ReconfigReply{Req: r.Req, Status: st, Epoch: 1}
	}
	return nil
}

// mistyped answers m with a reply of a type m is never answered with,
// under m's live ReqID: what a client restarted under its old address
// receives when a reply to its previous incarnation arrives late.
func mistyped(m proto.Message) proto.Message {
	req := replyTo(m, proto.StOK).(proto.Reply).Request()
	if _, ok := m.(*proto.Get); ok {
		return &proto.PutReply{Req: req, Status: proto.StOK, Version: 9}
	}
	return &proto.GetReply{Req: req, Status: proto.StOK, Value: []byte("stale")}
}

// TestRoutedVerbsRetry pins the one retry loop for every way a request
// is routed: a transient status or a mistyped reply is retried exactly
// once (one Metrics.Retries, one more request on the wire, under the
// first one's ReqID) and the verb then succeeds; a definitive status is
// the verb's answer, with no retry.
func TestRoutedVerbsRetry(t *testing.T) {
	verbs := []struct {
		name string
		run  func(c *Client) error
	}{
		{"key/put", func(c *Client) error { _, err := c.Put("k", []byte("v")); return err }},
		{"key/get", func(c *Client) error { _, _, err := c.Get("k"); return err }},
		{"key/delete", func(c *Client) error { return c.Delete("k") }},
		{"key/move", func(c *Client) error { _, err := c.Move("k", 2); return err }},
		{"leader/set-default", func(c *Client) error { return c.SetDefaultMemgest(2) }},
		{"leader/resize-join", func(c *Client) error { _, err := c.ResizeJoin(0); return err }},
		{"node/move-prefix", func(c *Client) error { _, err := c.MovePrefix("k", 0, 2); return err }},
	}
	firsts := []struct {
		name    string
		first   func(m proto.Message) proto.Message
		retried bool
	}{
		{"wrong-node", func(m proto.Message) proto.Message { return replyTo(m, proto.StWrongNode) }, true},
		{"retry", func(m proto.Message) proto.Message { return replyTo(m, proto.StRetry) }, true},
		{"unavailable", func(m proto.Message) proto.Message { return replyTo(m, proto.StUnavailable) }, true},
		{"mistyped", mistyped, true},
		{"invalid", func(m proto.Message) proto.Message { return replyTo(m, proto.StInvalid) }, false},
		{"not-found", func(m proto.Message) proto.Message { return replyTo(m, proto.StNotFound) }, false},
		{"no-memgest", func(m proto.Message) proto.Message { return replyTo(m, proto.StNoMemgest) }, false},
	}
	cfg := &proto.Config{Epoch: 1, Leader: 0, Coords: []proto.NodeID{0}}
	for _, v := range verbs {
		for _, f := range firsts {
			t.Run(v.name+"/"+f.name, func(t *testing.T) {
				var reqs []proto.ReqID
				fabric := fakeNodes(t, 1, func(_ proto.NodeID, m proto.Message) proto.Message {
					if r, ok := m.(*proto.Resolve); ok {
						return &proto.ResolveReply{Req: r.Req, Config: cfg}
					}
					reqs = append(reqs, replyTo(m, proto.StOK).(proto.Reply).Request())
					if len(reqs) == 1 {
						return f.first(m)
					}
					return replyTo(m, proto.StOK)
				})
				c, err := Dial(fabric, []string{core.NodeAddr(0)}, Options{Timeout: time.Second})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				issued, retries := Metrics.Requests.Load(), Metrics.Retries.Load()
				err = v.run(c)
				issued, retries = Metrics.Requests.Load()-issued, Metrics.Retries.Load()-retries
				wantRequests, wantRetries := 1, uint64(0)
				if f.retried {
					wantRequests, wantRetries = 2, 1
				}
				if (err == nil) != f.retried {
					t.Errorf("err = %v, want success only after a retry (retried=%v)", err, f.retried)
				}
				if len(reqs) != wantRequests || retries != wantRetries || issued != 1 {
					t.Errorf("%d requests on the wire, Metrics.Retries +%d, Metrics.Requests +%d; want %d, +%d, +1",
						len(reqs), retries, issued, wantRequests, wantRetries)
				}
				if f.retried && len(reqs) == 2 && reqs[1] != reqs[0] {
					t.Errorf("the retry carried ReqID %d, want the first attempt's %d", reqs[1], reqs[0])
				}
			})
		}
	}
}

// TestResolveConcurrentAndMonotonic: re-discovery asks every node at
// once, so three dead nodes cost one Timeout together, and an answer
// older than the view the client already holds never replaces it.
func TestResolveConcurrentAndMonotonic(t *testing.T) {
	const timeout = 50 * time.Millisecond
	cfg := func(epoch proto.Epoch) *proto.Config {
		return &proto.Config{
			Epoch: epoch, Leader: 0,
			Coords: []proto.NodeID{0, 1, 2}, Redundant: []proto.NodeID{3, 4}, Spares: []proto.NodeID{5, 6},
		}
	}
	// answers[node] is the epoch the node reports; absent = silent.
	answers := map[proto.NodeID]proto.Epoch{0: 5, 1: 5, 2: 5, 3: 5, 4: 5, 5: 5, 6: 5}
	var mu sync.Mutex
	fabric := fakeNodes(t, 7, func(node proto.NodeID, m proto.Message) proto.Message {
		r, ok := m.(*proto.Resolve)
		mu.Lock()
		epoch, alive := answers[node]
		mu.Unlock()
		if !ok || !alive {
			return nil
		}
		return &proto.ResolveReply{Req: r.Req, Config: cfg(epoch)}
	})
	c, err := Dial(fabric, []string{core.NodeAddr(0)}, Options{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	set := func(a map[proto.NodeID]proto.Epoch) {
		mu.Lock()
		answers = a
		mu.Unlock()
	}

	set(map[proto.NodeID]proto.Epoch{0: 5, 1: 5, 2: 5, 3: 5})
	start := time.Now()
	if err := c.resolve(nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 2*timeout {
		t.Errorf("resolve with three dead nodes took %v, want under 2x Timeout (%v): the dead are asked one after another", d, 2*timeout)
	}

	set(map[proto.NodeID]proto.Epoch{3: 3})
	if err := c.resolve(nil); err != nil {
		t.Fatalf("a stale node answered, yet resolve failed: %v", err)
	}
	if got := c.Config().Epoch; got != 5 {
		t.Errorf("view moved from epoch 5 to %d on a stale node's answer", got)
	}

	set(map[proto.NodeID]proto.Epoch{3: 3, 6: 6})
	if err := c.resolve(nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Config().Epoch; got != 6 {
		t.Errorf("view at epoch %d after a node answered with epoch 6", got)
	}
}
