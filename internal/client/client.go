// Package client implements the synchronous Ring client: the
// key-to-node routing of Section 5.1 (i = h(key) mod s), request/reply
// correlation, and the timeout + re-resolve fallback of Section 5.5
// (clients that get no answer re-discover the configuration and retry
// against the node now responsible for the key). Requests that
// concurrent callers address to one node in the same instant leave in
// one packet (outbox.go).
package client

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/store"
	"ring/internal/transport"
)

// Options tunes client behaviour.
type Options struct {
	// Timeout bounds one attempt of one request.
	Timeout time.Duration
	// Retries bounds re-resolve-and-retry cycles.
	Retries int
}

func (o Options) defaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 8
	}
	return o
}

// ErrTimeout is returned when a request exhausted its retries.
var ErrTimeout = errors.New("client: request timed out")

// ErrNotFound is returned by Get/Delete/Move for missing keys.
var ErrNotFound = errors.New("client: key not found")

var errNoConfig = errors.New("client: no configuration")

var clientSeq atomic.Uint64

// Client is a synchronous Ring client. It is safe for concurrent use.
type Client struct {
	opts Options
	ep   transport.Endpoint

	nextReq atomic.Uint64

	mu  sync.Mutex
	cfg *proto.Config
	// waiters holds the reply channel of every request in flight.
	// Whoever deletes an entry owes its channel exactly one result:
	// recvLoop the reply, a sender the error of the packet that did not
	// leave; the caller itself deletes it to give up, and then nothing
	// is owed.
	waiters  map[proto.ReqID]chan result
	outboxes map[string]*outbox // by destination

	closed chan struct{}
}

// result is what a call waits for: the reply, or why there is none.
type result struct {
	reply proto.Reply
	err   error
}

// Dial registers a client endpoint on the fabric and fetches the
// configuration from the given bootstrap node addresses.
func Dial(fabric transport.Fabric, bootstrap []string, opts Options) (*Client, error) {
	addr := fmt.Sprintf("client/%d", clientSeq.Add(1))
	ep, err := fabric.Register(addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		opts:     opts.defaults(),
		ep:       ep,
		waiters:  make(map[proto.ReqID]chan result),
		outboxes: make(map[string]*outbox),
		closed:   make(chan struct{}),
	}
	go c.recvLoop()
	if err := c.resolve(bootstrap); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the client endpoint.
func (c *Client) Close() {
	select {
	case <-c.closed:
		return
	default:
	}
	close(c.closed)
	c.ep.Close()
}

// Config returns the client's current view of the cluster.
func (c *Client) Config() *proto.Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}

func (c *Client) recvLoop() {
	for {
		p, err := c.ep.Recv()
		if err != nil {
			return
		}
		// Servers coalesce replies bound for the same client into one
		// TBatch packet; deliver each to its waiter.
		_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
			msg, err := proto.Decode(enc)
			if err != nil {
				return nil
			}
			reply, ok := msg.(proto.Reply)
			if !ok {
				return nil
			}
			if gr, ok := msg.(*proto.GetReply); ok {
				// The value goes to the caller; the packet it is a view
				// into goes back to the pool below.
				gr.Value = bytes.Clone(gr.Value)
			}
			c.deliver(reply.Request(), result{reply: reply})
			return nil
		})
		transport.ReleaseBuf(p.Payload)
	}
}

// timerPool recycles timeout timers across calls: time.After would
// leave a live runtime timer behind for the full timeout after every
// completed request, which at pipelined rates means thousands of
// orphaned timers churning the timer heap.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// replyChans recycles the one-slot channels calls wait on. A channel
// goes back empty: its call either received the one result it was owed
// or withdrew the waiter before anyone took it.
var replyChans = sync.Pool{New: func() any { return make(chan result, 1) }}

// deliver hands r to the call waiting for req, if it still is.
func (c *Client) deliver(req proto.ReqID, r result) {
	c.mu.Lock()
	ch := c.waiters[req]
	delete(c.waiters, req)
	c.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

// call queues a request for `to` (see outbox.go for how it leaves) and
// waits for the matching reply.
func (c *Client) call(to string, req proto.ReqID, msg proto.Message) (proto.Reply, error) {
	ch := replyChans.Get().(chan result)
	c.post(to, req, msg, ch)
	t := acquireTimer(c.opts.Timeout)
	var r result
	select {
	case r = <-ch:
	case <-t.C:
		if r = c.abandon(to, req, ch, ErrTimeout); r.err == ErrTimeout {
			Metrics.Timeouts.Inc()
		}
	case <-c.closed:
		r = c.abandon(to, req, ch, transport.ErrClosed)
	}
	releaseTimer(t)
	replyChans.Put(ch)
	return r.reply, r.err
}

func (c *Client) reqID() proto.ReqID { return proto.ReqID(c.nextReq.Add(1)) }

// resolve queries the given addresses (or every node of the last known
// config) for the freshest configuration — the client-side analogue of
// the paper's multicast re-discovery. All addresses are asked at once,
// so unreachable nodes cost one Timeout together, not one each; and the
// view only moves forward: an answer older than the configuration
// already held (a stale node was the only one to reply) is ignored.
func (c *Client) resolve(addrs []string) error {
	Metrics.Resolves.Inc()
	if addrs == nil {
		if cfg := c.Config(); cfg != nil {
			for _, id := range cfg.AllNodes() {
				addrs = append(addrs, core.NodeAddr(id))
			}
		}
	}
	answers := make(chan *proto.Config, len(addrs))
	for _, a := range addrs {
		go func() {
			req := c.reqID()
			reply, _ := c.call(a, req, &proto.Resolve{Req: req})
			var cfg *proto.Config
			if rr, ok := reply.(*proto.ResolveReply); ok {
				cfg = rr.Config
			}
			answers <- cfg
		}()
	}
	answered := false
	for range addrs {
		cfg := <-answers
		if cfg == nil {
			continue
		}
		answered = true
		c.mu.Lock()
		if c.cfg == nil || cfg.Epoch >= c.cfg.Epoch {
			c.cfg = cfg
		}
		c.mu.Unlock()
	}
	if !answered {
		return fmt.Errorf("client: no node answered resolve")
	}
	return nil
}

// route picks the node one attempt of a request goes to, from the
// configuration the client holds at that attempt.
type route func(cfg *proto.Config) proto.NodeID

func toCoordinator(key string) route {
	return func(cfg *proto.Config) proto.NodeID { return cfg.CoordinatorOf(store.KeyHash(key)) }
}

func toLeader(cfg *proto.Config) proto.NodeID { return cfg.Leader }

func toNode(id proto.NodeID) route {
	return func(*proto.Config) proto.NodeID { return id }
}

// do is the client's one request path (Section 5.5): send to the node
// the current configuration names, and on a timeout, a transient
// status, or a reply that is not the R this request is answered with
// (a late reply to a previous process's request with the same ReqID),
// re-discover the configuration, back off, and send again under a
// fresh ReqID, Options.Retries times over.
func do[R proto.Reply](c *Client, to route, build func(proto.ReqID) proto.Message) (R, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			Metrics.Retries.Inc()
			_ = c.resolve(nil)
			// Brief backoff: the cluster may be mid-reconfiguration.
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		cfg := c.Config()
		if cfg == nil || cfg.Shards() == 0 {
			lastErr = errNoConfig
			continue
		}
		req := c.reqID()
		reply, err := c.call(core.NodeAddr(to(cfg)), req, build(req))
		if err != nil {
			lastErr = err
			continue
		}
		r, ok := reply.(R)
		if !ok {
			lastErr = fmt.Errorf("client: unexpected reply %T", reply)
			continue
		}
		if s := r.Result(); s.Transient() {
			lastErr = s.Err()
			continue
		}
		return r, nil
	}
	var none R
	return none, lastErr
}

// keyOp runs one operation routed by its key.
func keyOp[R proto.Reply](c *Client, key string, build func(proto.ReqID) proto.Message) (R, error) {
	Metrics.Requests.Inc()
	return do[R](c, toCoordinator(key), build)
}

// leaderOp runs one management operation, routed to the leader.
func leaderOp[R proto.Reply](c *Client, build func(proto.ReqID) proto.Message) (R, error) {
	Metrics.Requests.Inc()
	return do[R](c, toLeader, build)
}

// Put stores value under key in the cluster's default memgest.
func (c *Client) Put(key string, value []byte) (proto.Version, error) {
	return c.PutIn(key, value, 0)
}

// PutIn stores value under key in a specific memgest.
func (c *Client) PutIn(key string, value []byte, mg proto.MemgestID) (proto.Version, error) {
	return putResult(c.doPutOp(key, value, mg))
}

// Get fetches the newest committed value of key.
func (c *Client) Get(key string) ([]byte, proto.Version, error) {
	return c.GetVersion(key, 0)
}

// GetVersion fetches a specific retained version of key (0 = newest).
// Older versions exist while in flight or when the cluster runs with
// KeepVersions > 0 — e.g. the durable copy a key had before being
// moved to the unreliable memgest.
func (c *Client) GetVersion(key string, ver proto.Version) ([]byte, proto.Version, error) {
	return getResult(c.doGetOp(key, ver))
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	return deleteResult(c.doDeleteOp(key))
}

// Move transfers key to another memgest without resending its value.
func (c *Client) Move(key string, mg proto.MemgestID) (proto.Version, error) {
	return c.MoveIf(key, 0, mg)
}

// MoveIf is Move conditional on the key's current memgest: the move is
// rejected (StInvalid) unless the newest committed version lives in
// from (0 = wherever it lives). The call returns once the destination
// write committed — the window the coordinator holds open is invisible
// here beyond latency.
func (c *Client) MoveIf(key string, from, to proto.MemgestID) (proto.Version, error) {
	r, err := keyOp[*proto.MoveReply](c, key, func(req proto.ReqID) proto.Message {
		return &proto.Move{Req: req, Key: key, Memgest: to, From: from}
	})
	if err != nil {
		return 0, err
	}
	if r.Status == proto.StNotFound {
		return 0, ErrNotFound
	}
	return r.Version, r.Status.Err()
}

// CreateMemgest instantiates a new storage scheme and returns its ID.
func (c *Client) CreateMemgest(sc proto.Scheme) (proto.MemgestID, error) {
	r, err := leaderOp[*proto.MemgestReply](c, func(req proto.ReqID) proto.Message {
		return &proto.CreateMemgest{Req: req, Scheme: sc}
	})
	if err != nil {
		return 0, err
	}
	if r.Status != proto.StOK {
		return 0, r.Status.Err()
	}
	// Refresh the config so subsequent puts route into the new scheme.
	_ = c.resolve(nil)
	return r.Memgest, nil
}

// DeleteMemgest removes a memgest.
func (c *Client) DeleteMemgest(id proto.MemgestID) error {
	r, err := leaderOp[*proto.MemgestReply](c, func(req proto.ReqID) proto.Message {
		return &proto.DeleteMemgest{Req: req, Memgest: id}
	})
	if err != nil {
		return err
	}
	_ = c.resolve(nil)
	return r.Status.Err()
}

// SetDefaultMemgest selects the memgest for puts without an explicit
// scheme.
func (c *Client) SetDefaultMemgest(id proto.MemgestID) error {
	r, err := leaderOp[*proto.MemgestReply](c, func(req proto.ReqID) proto.Message {
		return &proto.SetDefault{Req: req, Memgest: id}
	})
	if err != nil {
		return err
	}
	_ = c.resolve(nil)
	return r.Status.Err()
}

// GetMemgestDescriptor fetches a memgest's scheme.
func (c *Client) GetMemgestDescriptor(id proto.MemgestID) (proto.Scheme, error) {
	r, err := leaderOp[*proto.MemgestReply](c, func(req proto.ReqID) proto.Message {
		return &proto.GetDescriptor{Req: req, Memgest: id}
	})
	if err != nil {
		return proto.Scheme{}, err
	}
	if r.Status != proto.StOK {
		return proto.Scheme{}, r.Status.Err()
	}
	return r.Scheme, nil
}
