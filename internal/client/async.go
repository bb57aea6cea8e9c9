package client

// Asynchronous client API: PutAsync/GetAsync/DeleteAsync issue a
// request and return immediately with a future, so a single client
// keeps many requests in flight over the fabric — the pipelining the
// paper's throughput experiments (Fig 9, Table 1) rely on. Each
// in-flight operation runs the same do*Op as the synchronous API —
// timeout, re-resolve and retry — on a goroutine of its own, where the
// synchronous API runs it on its caller's; both are multiplexed over
// the client's single endpoint by its session and leave through the
// same outboxes, so concurrent callers of either share packets. The
// Pipeline helper bounds the number of outstanding operations and
// aggregates completions for bulk loads and benchmarks.

import (
	"sync"
	"sync/atomic"

	"ring/internal/proto"
	"ring/internal/transport"
)

// future is the completion cell shared by the typed futures: the
// operation goroutine fills reply/err and closes done.
type future[R proto.Reply] struct {
	done  chan struct{}
	reply R
	err   error
}

func (f *future[R]) wait() (R, error) {
	<-f.done
	return f.reply, f.err
}

// The do*Op helpers run one key-routed operation synchronously; they
// are the unit of work shared by the synchronous API, the standalone
// futures, and pipeline workers. Their message makers read the
// arguments from the call: they capture nothing, so they cost no
// allocation.

func (c *Client) doPutOp(key string, value []byte, mg proto.MemgestID) (*proto.PutReply, error) {
	k := c.newCall(byKey, key)
	k.value, k.mg = value, mg
	return do[*proto.PutReply](k, func(k *call, req proto.ReqID) proto.Message {
		return &proto.Put{Req: req, Key: k.key, Value: k.value, Memgest: k.mg}
	})
}

func (c *Client) doGetOp(key string, ver proto.Version) (*proto.GetReply, error) {
	k := c.newCall(byKey, key)
	k.ver = ver
	return do[*proto.GetReply](k, func(k *call, req proto.ReqID) proto.Message {
		return &proto.Get{Req: req, Key: k.key, Version: k.ver}
	})
}

func (c *Client) doDeleteOp(key string) (*proto.DeleteReply, error) {
	return do[*proto.DeleteReply](c.newCall(byKey, key), func(k *call, req proto.ReqID) proto.Message {
		return &proto.Delete{Req: req, Key: k.key}
	})
}

// startOp issues one operation asynchronously on its own goroutine.
func startOp[R proto.Reply](op func() (R, error)) *future[R] {
	f := &future[R]{done: make(chan struct{})}
	go func() {
		f.reply, f.err = op()
		close(f.done)
	}()
	return f
}

// ----------------------------------------------------------- typed futures

// PutFuture resolves an asynchronous Put.
type PutFuture struct{ f *future[*proto.PutReply] }

// Wait blocks until the put commits (or fails) and returns the
// committed version.
func (f *PutFuture) Wait() (proto.Version, error) { return putResult(f.f.wait()) }

func putResult(r *proto.PutReply, err error) (proto.Version, error) {
	if err != nil {
		return 0, err
	}
	if r.Status != proto.StOK {
		return 0, r.Status.Err()
	}
	return r.Version, nil
}

// GetFuture resolves an asynchronous Get.
type GetFuture struct{ f *future[*proto.GetReply] }

// Wait blocks until the reply arrives and returns the value and its
// version (or ErrNotFound).
func (f *GetFuture) Wait() ([]byte, proto.Version, error) { return getResult(f.f.wait()) }

func getResult(r *proto.GetReply, err error) ([]byte, proto.Version, error) {
	if err != nil {
		return nil, 0, err
	}
	switch r.Status {
	case proto.StOK:
		return r.Value, r.Version, nil
	case proto.StNotFound:
		return nil, 0, ErrNotFound
	default:
		return nil, 0, r.Status.Err()
	}
}

// DeleteFuture resolves an asynchronous Delete.
type DeleteFuture struct{ f *future[*proto.DeleteReply] }

// Wait blocks until the tombstone commits (or ErrNotFound).
func (f *DeleteFuture) Wait() error { return deleteResult(f.f.wait()) }

func deleteResult(r *proto.DeleteReply, err error) error {
	if err != nil {
		return err
	}
	if r.Status == proto.StNotFound {
		return ErrNotFound
	}
	return r.Status.Err()
}

// ------------------------------------------------------------- issue calls

// PutAsync stores value under key in the default memgest without
// waiting for the commit.
func (c *Client) PutAsync(key string, value []byte) *PutFuture {
	return c.PutInAsync(key, value, 0)
}

// PutInAsync stores value under key in a specific memgest without
// waiting for the commit.
func (c *Client) PutInAsync(key string, value []byte, mg proto.MemgestID) *PutFuture {
	return &PutFuture{f: startOp(func() (*proto.PutReply, error) { return c.doPutOp(key, value, mg) })}
}

// GetAsync fetches the newest committed value of key without waiting.
func (c *Client) GetAsync(key string) *GetFuture {
	return c.GetVersionAsync(key, 0)
}

// GetVersionAsync fetches a specific retained version of key
// (0 = newest) without waiting.
func (c *Client) GetVersionAsync(key string, ver proto.Version) *GetFuture {
	return &GetFuture{f: startOp(func() (*proto.GetReply, error) { return c.doGetOp(key, ver) })}
}

// DeleteAsync removes key without waiting for the commit.
func (c *Client) DeleteAsync(key string) *DeleteFuture {
	return &DeleteFuture{f: startOp(func() (*proto.DeleteReply, error) { return c.doDeleteOp(key) })}
}

// ---------------------------------------------------------------- pipeline

// Pipeline issues asynchronous operations with a bounded number
// outstanding: an issue call blocks while the bound is reached, then
// fires and returns without waiting for completion. Operations run on
// a fixed pool of worker goroutines (one per slot of depth) rather
// than a goroutine per request, so the steady-state issue path pays
// no goroutine spawn or stack growth. It is safe for concurrent use;
// Flush waits for everything issued so far and returns the first
// operation error (puts and deletes fail on any non-OK status, gets
// additionally on ErrNotFound). The workers exit when the client
// closes; operations issued after that resolve with the transport's
// closed error.
type Pipeline struct {
	c    *Client
	work chan func()
	wg   sync.WaitGroup

	// inflight counts operations currently executing; it is bounded by
	// the worker count and exists for observation (tests, stats).
	inflight atomic.Int32

	mu  sync.Mutex
	err error // first failure, sticky until Flush resets it
}

// NewPipeline creates a pipeline bounded to depth outstanding
// operations (<= 0 selects 16).
func (c *Client) NewPipeline(depth int) *Pipeline {
	if depth <= 0 {
		depth = 16
	}
	p := &Pipeline{c: c, work: make(chan func())}
	for i := 0; i < depth; i++ {
		go func() {
			for {
				select {
				case op := <-p.work:
					op()
				case <-c.closed:
					return
				}
			}
		}()
	}
	return p
}

// submit hands one operation to a worker, blocking while every worker
// is busy — that block is what bounds the pipeline depth.
func submit[R proto.Reply](p *Pipeline, op func() (R, error), result func(R, error) error) *future[R] {
	f := &future[R]{done: make(chan struct{})}
	p.wg.Add(1)
	job := func() {
		Metrics.PipelineDepth.Observe(int64(p.inflight.Add(1)))
		f.reply, f.err = op()
		err := result(f.reply, f.err)
		p.inflight.Add(-1)
		p.end(err)
		close(f.done)
	}
	select {
	case p.work <- job:
	case <-p.c.closed:
		f.err = transport.ErrClosed
		p.end(f.err)
		close(f.done)
	}
	return f
}

func (p *Pipeline) end(err error) {
	if err != nil {
		p.mu.Lock()
		if p.err == nil {
			p.err = err
		}
		p.mu.Unlock()
	}
	p.wg.Done()
}

// Put issues an asynchronous put into the default memgest.
func (p *Pipeline) Put(key string, value []byte) *PutFuture {
	return p.PutIn(key, value, 0)
}

// PutIn issues an asynchronous put into a specific memgest.
func (p *Pipeline) PutIn(key string, value []byte, mg proto.MemgestID) *PutFuture {
	return &PutFuture{f: submit(p,
		func() (*proto.PutReply, error) { return p.c.doPutOp(key, value, mg) },
		func(r *proto.PutReply, err error) error { _, e := putResult(r, err); return e })}
}

// Get issues an asynchronous get.
func (p *Pipeline) Get(key string) *GetFuture {
	return &GetFuture{f: submit(p,
		func() (*proto.GetReply, error) { return p.c.doGetOp(key, 0) },
		func(r *proto.GetReply, err error) error { _, _, e := getResult(r, err); return e })}
}

// Delete issues an asynchronous delete.
func (p *Pipeline) Delete(key string) *DeleteFuture {
	return &DeleteFuture{f: submit(p, func() (*proto.DeleteReply, error) { return p.c.doDeleteOp(key) }, deleteResult)}
}

// Flush waits for every operation issued so far to complete and
// returns the first error among them (nil if all succeeded). The
// error is cleared, so a pipeline can be reused across batches.
func (p *Pipeline) Flush() error {
	p.wg.Wait()
	p.mu.Lock()
	err := p.err
	p.err = nil
	p.mu.Unlock()
	return err
}
