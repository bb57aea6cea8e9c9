// Package client implements the Ring client: routing by h(key) mod s
// (Section 5.1) and the timeout + re-resolve fallback of Section 5.5.
// Session (session.go) is the protocol logic, which the simulator runs
// too; Client drives it over a fabric, each operation on its caller's
// goroutine, and sends what callers address to one node at once in one
// packet (outbox.go). N goroutines calling one Client keep N operations
// in flight.
package client

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
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

// Client is a synchronous Ring client. It is safe for concurrent use.
type Client struct {
	opts Options
	ep   transport.Endpoint
	born time.Time // the session's clock reads the time since

	mu       sync.Mutex
	sess     *Session
	outboxes map[string]*outbox // by destination
	claimed  []*outbox          // found idle by sends, for the sender to send
	asks     []*ask

	closed    chan struct{}
	closeOnce sync.Once
}

// Dial registers a client endpoint on the fabric and fetches the
// configuration from the given bootstrap node addresses. The endpoint's
// name is 64 random bits: nodes route replies by name, so two clients
// must not share one, even from two processes.
//
//ring:wallclock starts the session's clock and draws the name
func Dial(fabric transport.Fabric, bootstrap []string, opts Options) (*Client, error) {
	if len(bootstrap) == 0 {
		return nil, errors.New("client: no bootstrap address")
	}
	ep, err := fabric.Register(fmt.Sprintf("client/%016x", rand.Uint64()))
	if err != nil {
		return nil, err
	}
	c := &Client{
		opts:     opts.defaults(),
		ep:       ep,
		born:     time.Now(),
		outboxes: make(map[string]*outbox),
		closed:   make(chan struct{}),
	}
	c.sess = NewSession(sink{c}, nil, c.opts.Timeout, c.opts.Retries)
	go c.recvLoop()
	if err := c.resolve(bootstrap); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the client endpoint; operations in flight end with
// transport.ErrClosed.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.ep.Close()
	})
}

// Config returns the client's current view of the cluster.
func (c *Client) Config() *proto.Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess.View()
}

// now reads the session's clock.
//
//ring:wallclock the live client's event clock
func (c *Client) now() time.Duration { return time.Since(c.born) }

// sink is the Client as its session's Sink, under c.mu.
type sink struct{ c *Client }

func (s sink) Send(to proto.NodeID, req proto.ReqID, msg proto.Message) {
	s.c.queue(core.NodeAddr(to), req, msg)
}

// At keeps the earliest wake-up of the current attempt; a back-off (from
// a reply or a lost packet, not the call's goroutine) kicks it.
func (s sink) At(w Wake) {
	if k := w.Op.(*call); w.attempt != k.next.attempt {
		k.next = w
	} else if w.At < k.next.At {
		k.next = w
		k.kick()
	}
}

func (c *Client) take(own []*outbox) []*outbox {
	own = append(own[:0], c.claimed...)
	c.claimed = c.claimed[:0]
	return own
}

func (c *Client) recvLoop() {
	for {
		p, err := c.ep.Recv()
		if err != nil {
			return
		}
		// A packet may be a TBatch of replies.
		_ = proto.ForEachPacked(p.Payload, func(enc []byte) error {
			msg, err := proto.Decode(enc)
			r, ok := msg.(proto.Reply)
			if err != nil || !ok {
				return nil
			}
			if gr, ok := msg.(*proto.GetReply); ok {
				// The value goes to the caller; the packet it is a view
				// into goes back to the pool below.
				gr.Value = bytes.Clone(gr.Value)
			}
			c.mu.Lock()
			if rr, ok := r.(*proto.ResolveReply); ok {
				asked(c.asks, rr.Req, rr.Config != nil)
			}
			c.sess.Reply(c.now(), r)
			c.mu.Unlock()
			return nil
		})
		transport.ReleaseBuf(p.Payload)
	}
}

// failed tells the session the packet carrying reqs did not leave.
func (c *Client) failed(reqs []proto.ReqID) {
	c.mu.Lock()
	for _, req := range reqs {
		asked(c.asks, req, false)
		c.sess.Failed(c.now(), req)
	}
	c.mu.Unlock()
}

// ask is an ask-all in flight: its Resolves are [lo, hi), left of them
// neither answered nor lost.
type ask struct {
	lo, hi   proto.ReqID
	left     int
	answered bool
	done     chan struct{}
}

func asked(asks []*ask, req proto.ReqID, answered bool) {
	for _, a := range asks {
		if a.lo <= req && req < a.hi {
			a.answered = a.answered || answered
			if a.left--; a.left == 0 {
				close(a.done)
			}
		}
	}
}

// resolve asks addrs (nil: the view's nodes) for the configuration at
// once, so the unreachable cost one Timeout together, and waits until
// each answered or was lost, or the Timeout passed.
//
//ring:wallclock waits one Timeout at most
func (c *Client) resolve(addrs []string) error {
	Metrics.Resolves.Inc()
	a := &ask{done: make(chan struct{})}
	c.mu.Lock()
	if addrs == nil {
		for _, id := range c.sess.View().AllNodes() {
			addrs = append(addrs, core.NodeAddr(id))
		}
	}
	a.left = len(addrs)
	for _, to := range addrs {
		m := c.sess.Ask(c.now())
		a.hi = m.Req + 1 // the session files them one after another
		c.queue(to, m.Req, m)
	}
	a.lo = a.hi - proto.ReqID(a.left)
	c.asks = append(c.asks, a)
	own := c.take(nil)
	c.mu.Unlock()
	for _, ob := range own {
		c.send(ob)
	}
	t := time.NewTimer(c.opts.Timeout)
	select {
	case <-a.done:
	case <-t.C:
	case <-c.closed:
	}
	t.Stop()
	c.mu.Lock()
	c.asks = slices.DeleteFunc(c.asks, func(x *ask) bool { return x == a })
	c.mu.Unlock()
	if !a.answered {
		return errors.New("client: no node answered resolve")
	}
	return nil
}

// call is an operation of the live client, waited on by its caller's
// goroutine; to and msg make an attempt from the arguments key..node.
type call struct {
	OpState
	c     *Client
	to    func(k *call, view *proto.Config) proto.NodeID
	msg   func(k *call, req proto.ReqID) proto.Message
	key   string
	value []byte
	ver   proto.Version
	mg    proto.MemgestID
	node  proto.NodeID
	want  proto.MsgType // of the reply that answers it

	next  Wake          // the earliest wake-up of the current attempt
	timer *time.Timer   // kicks at next
	kicks chan struct{} // one slot: look again
	own   []*outbox     // claimed outboxes it is to send
	reply proto.Reply
	err   error // why the last attempt failed
}

var calls = sync.Pool{New: func() any { return &call{kicks: make(chan struct{}, 1)} }}

// newCall takes a call from the pool for one operation routed by to.
func (c *Client) newCall(to func(*call, *proto.Config) proto.NodeID, key string) *call {
	Metrics.Requests.Inc()
	k := calls.Get().(*call)
	k.c, k.to, k.key = c, to, key
	return k
}

func byKey(k *call, view *proto.Config) proto.NodeID {
	return view.CoordinatorOf(store.KeyHash(k.key))
}

func toLeader(_ *call, view *proto.Config) proto.NodeID { return view.Leader }

func toNode(k *call, _ *proto.Config) proto.NodeID { return k.node }

func (k *call) Build(view *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message) {
	return k.to(k, view), k.msg(k, req)
}

// Done takes a reply of the wanted type and a status not transient. A
// mistyped reply (a late one to an earlier life's ReqID) is transient.
func (k *call) Done(_ time.Duration, r proto.Reply) bool {
	switch {
	case r == nil: // the budget ran out; err says why
	case r.Type() != k.want:
		k.err = fmt.Errorf("client: unexpected reply %T", r)
		return false
	case r.Result().Transient():
		k.err = r.Result().Err()
		return false
	default:
		k.reply = r
	}
	k.kick()
	return true
}

func (k *call) kick() {
	select {
	case k.kicks <- struct{}{}:
	default:
	}
}

// arm makes k's timer kick it after d.
//
//ring:wallclock the live client's timer
func (k *call) arm(d time.Duration) {
	if k.timer == nil {
		k.timer = time.AfterFunc(d, k.kick)
		return
	}
	k.timer.Reset(d)
}

// do runs k, whose attempts msg makes, on the caller's goroutine until
// a reply of type R settles it or an error ends it; a call that settled
// goes back to the pool.
func do[R proto.Reply](k *call, msg func(*call, proto.ReqID) proto.Message) (R, error) {
	var none R
	c := k.c
	k.msg, k.want, k.err, k.next = msg, none.Type(), ErrTimeout, Wake{attempt: -1}
	c.mu.Lock()
	c.sess.Start(c.now(), k)
	for !k.settled {
		now := c.now()
		if now >= k.next.At {
			// Due: the attempt expired or a back-off ended.
			attempts := k.attempts
			if k.next.Timeout {
				k.err = ErrTimeout
				Metrics.Timeouts.Inc()
			}
			if c.sess.Wake(now, k.next); k.attempts > attempts && !k.settled {
				Metrics.Retries.Inc()
				Metrics.Resolves.Inc()
			}
			continue
		}
		k.arm(k.next.At - now)
		k.own = c.take(k.own)
		c.mu.Unlock()
		for _, ob := range k.own {
			c.send(ob)
		}
		select {
		case <-k.kicks:
		case <-c.closed:
			c.mu.Lock()
			c.forget(k) // k stays in the session's table, so out of the pool
			return none, transport.ErrClosed
		}
		c.mu.Lock()
	}
	c.forget(k)
	if k.timer != nil {
		k.timer.Stop()
	}
	r, err := k.reply, k.err
	*k = call{OpState: OpState{reqs: k.reqs[:0]}, timer: k.timer, kicks: k.kicks, own: k.own[:0]}
	calls.Put(k)
	if r == nil {
		return none, err
	}
	return r.(R), nil
}

// Put stores value under key in the cluster's default memgest.
func (c *Client) Put(key string, value []byte) (proto.Version, error) {
	return c.PutIn(key, value, 0)
}

// The message makers of PutIn, GetVersion and Delete read the arguments
// from the call: they capture nothing, so they cost no allocation.

// PutIn stores value under key in a specific memgest.
func (c *Client) PutIn(key string, value []byte, mg proto.MemgestID) (proto.Version, error) {
	k := c.newCall(byKey, key)
	k.value, k.mg = value, mg
	r, err := do[*proto.PutReply](k, func(k *call, req proto.ReqID) proto.Message {
		return &proto.Put{Req: req, Key: k.key, Value: k.value, Memgest: k.mg}
	})
	if err = answer(r, err); err != nil {
		return 0, err
	}
	return r.Version, nil
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
	k := c.newCall(byKey, key)
	k.ver = ver
	r, err := do[*proto.GetReply](k, func(k *call, req proto.ReqID) proto.Message {
		return &proto.Get{Req: req, Key: k.key, Version: k.ver}
	})
	if err = answer(r, err); err != nil {
		return nil, 0, err
	}
	return r.Value, r.Version, nil
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	return answer(do[*proto.DeleteReply](c.newCall(byKey, key), func(k *call, req proto.ReqID) proto.Message {
		return &proto.Delete{Req: req, Key: k.key}
	}))
}

// answer is how an operation ended: the error that ended it, else its
// reply's status, StNotFound as ErrNotFound.
func answer(r proto.Reply, err error) error {
	switch {
	case err != nil:
		return err
	case r.Result() == proto.StNotFound:
		return ErrNotFound
	}
	return r.Result().Err()
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
	r, err := do[*proto.MoveReply](c.newCall(byKey, key), func(k *call, req proto.ReqID) proto.Message {
		return &proto.Move{Req: req, Key: k.key, Memgest: to, From: from}
	})
	if err = answer(r, err); err != nil {
		return 0, err
	}
	return r.Version, nil
}

// CreateMemgest instantiates a new storage scheme and returns its ID.
func (c *Client) CreateMemgest(sc proto.Scheme) (proto.MemgestID, error) {
	r, err := c.reconfig(proto.Reconfig{Op: proto.ReconfigCreate, Scheme: sc})
	return r.Memgest, err
}

// DeleteMemgest removes a memgest.
func (c *Client) DeleteMemgest(id proto.MemgestID) error {
	_, err := c.reconfig(proto.Reconfig{Op: proto.ReconfigDelete, Memgest: id})
	return err
}

// SetDefaultMemgest selects the memgest for puts without an explicit
// scheme.
func (c *Client) SetDefaultMemgest(id proto.MemgestID) error {
	_, err := c.reconfig(proto.Reconfig{Op: proto.ReconfigSetDefault, Memgest: id})
	return err
}

// GetMemgestDescriptor returns a memgest's scheme as the configuration,
// resolved afresh, describes it.
func (c *Client) GetMemgestDescriptor(id proto.MemgestID) (proto.Scheme, error) {
	if err := c.resolve(nil); err != nil {
		return proto.Scheme{}, err
	}
	if mi := c.Config().Memgest(id); mi != nil {
		return mi.Scheme, nil
	}
	return proto.Scheme{}, proto.StNoMemgest.Err()
}

// reconfig runs one configuration change at the leader and, once the
// leader answered, refreshes the view to the configuration it produced,
// so that later operations route by it. A status other than StOK is the
// error.
func (c *Client) reconfig(m proto.Reconfig) (proto.ReconfigReply, error) {
	r, err := do[*proto.ReconfigReply](c.newCall(toLeader, ""), func(_ *call, req proto.ReqID) proto.Message {
		attempt := m
		attempt.Req = req
		return &attempt
	})
	if err != nil {
		return proto.ReconfigReply{}, err
	}
	_ = c.resolve(nil)
	return *r, r.Status.Err()
}
