// Package client implements the synchronous Ring client: the
// key-to-node routing of Section 5.1 (i = h(key) mod s), request/reply
// correlation, and the timeout + re-resolve fallback of Section 5.5
// (clients that get no answer re-discover the configuration and retry
// against the node now responsible for the key).
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

var clientSeq atomic.Uint64

// Client is a synchronous Ring client. It is safe for concurrent use.
type Client struct {
	opts Options
	ep   transport.Endpoint

	mu      sync.Mutex
	cfg     *proto.Config
	nextReq uint64
	waiters map[proto.ReqID]chan proto.Message

	closed chan struct{}
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
		opts:    opts.defaults(),
		ep:      ep,
		nextReq: 1,
		waiters: make(map[proto.ReqID]chan proto.Message),
		closed:  make(chan struct{}),
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
			req, ok := requestID(msg)
			if !ok {
				return nil
			}
			if gr, ok := msg.(*proto.GetReply); ok {
				// The value goes to the caller; the packet it is a view
				// into goes back to the pool below.
				gr.Value = bytes.Clone(gr.Value)
			}
			c.mu.Lock()
			ch := c.waiters[req]
			delete(c.waiters, req)
			c.mu.Unlock()
			if ch != nil {
				ch <- msg
			}
			return nil
		})
		transport.ReleaseBuf(p.Payload)
	}
}

// requestID extracts the correlation id from a reply message.
func requestID(m proto.Message) (proto.ReqID, bool) {
	switch r := m.(type) {
	case *proto.PutReply:
		return r.Req, true
	case *proto.GetReply:
		return r.Req, true
	case *proto.DeleteReply:
		return r.Req, true
	case *proto.MoveReply:
		return r.Req, true
	case *proto.MemgestReply:
		return r.Req, true
	case *proto.ResolveReply:
		return r.Req, true
	case *proto.ResizeReply:
		return r.Req, true
	}
	return 0, false
}

// call sends a request to `to` and waits for the matching reply.
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

func (c *Client) call(to string, req proto.ReqID, msg proto.Message) (proto.Message, error) {
	ch := make(chan proto.Message, 1)
	c.mu.Lock()
	c.waiters[req] = ch
	c.mu.Unlock()
	cleanup := func() {
		c.mu.Lock()
		delete(c.waiters, req)
		c.mu.Unlock()
	}
	if err := c.ep.Send(to, proto.AppendEncode(transport.AcquireBufSize(proto.SizeHint(msg)), msg)); err != nil {
		cleanup()
		return nil, err
	}
	t := acquireTimer(c.opts.Timeout)
	defer releaseTimer(t)
	select {
	case reply := <-ch:
		return reply, nil
	case <-t.C:
		Metrics.Timeouts.Inc()
		cleanup()
		return nil, ErrTimeout
	case <-c.closed:
		cleanup()
		return nil, transport.ErrClosed
	}
}

func (c *Client) reqID() proto.ReqID {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := proto.ReqID(c.nextReq)
	c.nextReq++
	return r
}

// resolve queries the given addresses (or every node of the last known
// config) for the freshest configuration — the client-side analogue of
// the paper's multicast re-discovery.
func (c *Client) resolve(addrs []string) error {
	Metrics.Resolves.Inc()
	if addrs == nil {
		c.mu.Lock()
		if c.cfg != nil {
			for _, id := range c.cfg.AllNodes() {
				addrs = append(addrs, core.NodeAddr(id))
			}
		}
		c.mu.Unlock()
	}
	var best *proto.Config
	for _, a := range addrs {
		req := c.reqID()
		reply, err := c.call(a, req, &proto.Resolve{Req: req})
		if err != nil {
			continue
		}
		rr, ok := reply.(*proto.ResolveReply)
		if !ok {
			continue
		}
		if best == nil || rr.Config.Epoch > best.Epoch {
			best = rr.Config
		}
	}
	if best == nil {
		return fmt.Errorf("client: no node answered resolve")
	}
	c.mu.Lock()
	c.cfg = best
	c.mu.Unlock()
	return nil
}

func (c *Client) coordinatorFor(key string) (string, error) {
	c.mu.Lock()
	cfg := c.cfg
	c.mu.Unlock()
	if cfg == nil || cfg.Shards() == 0 {
		return "", fmt.Errorf("client: no configuration")
	}
	return core.NodeAddr(cfg.CoordinatorOf(store.KeyHash(key))), nil
}

func (c *Client) leaderAddr() (string, error) {
	c.mu.Lock()
	cfg := c.cfg
	c.mu.Unlock()
	if cfg == nil {
		return "", fmt.Errorf("client: no configuration")
	}
	return core.NodeAddr(cfg.Leader), nil
}

// retryStatus reports whether a status warrants re-resolving and
// retrying.
func retryStatus(s proto.Status) bool {
	return s == proto.StWrongNode || s == proto.StRetry || s == proto.StUnavailable
}

// doKeyOp runs a key-routed request with timeout/wrong-node retry.
func (c *Client) doKeyOp(key string, build func(proto.ReqID) proto.Message, status func(proto.Message) proto.Status) (proto.Message, error) {
	Metrics.Requests.Inc()
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			Metrics.Retries.Inc()
			_ = c.resolve(nil)
			// Brief backoff: the cluster may be mid-reconfiguration.
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		to, err := c.coordinatorFor(key)
		if err != nil {
			lastErr = err
			continue
		}
		req := c.reqID()
		reply, err := c.call(to, req, build(req))
		if err != nil {
			lastErr = err
			continue
		}
		if s := status(reply); retryStatus(s) {
			lastErr = s.Err()
			continue
		}
		return reply, nil
	}
	if lastErr == nil {
		lastErr = ErrTimeout
	}
	return nil, lastErr
}

// Put stores value under key in the cluster's default memgest.
func (c *Client) Put(key string, value []byte) (proto.Version, error) {
	return c.PutIn(key, value, 0)
}

// PutIn stores value under key in a specific memgest. It is the
// one-deep special case of the asynchronous path: issue, then wait.
func (c *Client) PutIn(key string, value []byte, mg proto.MemgestID) (proto.Version, error) {
	return c.PutInAsync(key, value, mg).Wait()
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
	return c.GetVersionAsync(key, ver).Wait()
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	return c.DeleteAsync(key).Wait()
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
	reply, err := c.doKeyOp(key,
		func(req proto.ReqID) proto.Message {
			return &proto.Move{Req: req, Key: key, Memgest: to, From: from}
		},
		func(m proto.Message) proto.Status { return m.(*proto.MoveReply).Status })
	if err != nil {
		return 0, err
	}
	r := reply.(*proto.MoveReply)
	if r.Status == proto.StNotFound {
		return 0, ErrNotFound
	}
	return r.Version, r.Status.Err()
}

// doLeaderOp runs a leader-routed management request.
func (c *Client) doLeaderOp(build func(proto.ReqID) proto.Message) (*proto.MemgestReply, error) {
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
		reply, err := c.call(to, req, build(req))
		if err != nil {
			lastErr = err
			continue
		}
		r, ok := reply.(*proto.MemgestReply)
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

// CreateMemgest instantiates a new storage scheme and returns its ID.
func (c *Client) CreateMemgest(sc proto.Scheme) (proto.MemgestID, error) {
	r, err := c.doLeaderOp(func(req proto.ReqID) proto.Message {
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
	r, err := c.doLeaderOp(func(req proto.ReqID) proto.Message {
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
	r, err := c.doLeaderOp(func(req proto.ReqID) proto.Message {
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
	r, err := c.doLeaderOp(func(req proto.ReqID) proto.Message {
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
