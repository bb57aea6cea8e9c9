package client

import (
	"runtime"
	"slices"
	"sync"

	"ring/internal/proto"
	"ring/internal/transport"
)

// The client's half of the per-destination coalescing every node does
// (core.Runner.flush): the requests concurrent callers address to one
// node leave in one packet, not one packet each. There is no sender
// goroutine and no timer. A call appends its message to the
// destination's outbox; the caller that finds the outbox idle becomes
// its sender, yields the processor once, then packs whatever is queued
// into one TBatch (a lone request stays its plain envelope), sends it,
// and goes on until the outbox is empty, while the callers that came
// after it only append and wait for their replies.
//
// The yield is what fills the packet. One reply packet wakes a burst of
// callers, and they run one after another on the processor that read
// it: without the yield the first would have written its request to the
// socket before the second had built its own, and every packet would
// carry one. Yielding lets the rest of the burst reach the outbox
// first, at the price of one pass through the scheduler for a caller
// that is alone.

// outbox is what one destination is owed. Everything but packing is
// guarded by Client.mu.
type outbox struct {
	// reqs and msgs are the queued requests, index for index.
	reqs []proto.ReqID
	msgs []proto.Message
	// sending is set while some caller is the outbox's sender.
	sending bool
	// spareReqs and spareMsgs are the previous packet's slices, which
	// the sender swaps in for the ones it takes.
	spareReqs []proto.ReqID
	spareMsgs []proto.Message
	// packing is held while the sender encodes the messages it took: a
	// call that gives up may not return, and let its caller reuse the
	// bytes the message points at, until the encoder is done with them.
	packing sync.Mutex
}

// post registers ch as the waiter of req and queues msg for `to`,
// sending the outbox's packets if nobody else is.
func (c *Client) post(to string, req proto.ReqID, msg proto.Message, ch chan result) {
	c.mu.Lock()
	c.waiters[req] = ch
	ob := c.outboxes[to]
	if ob == nil {
		ob = new(outbox)
		c.outboxes[to] = ob
	}
	ob.reqs = append(ob.reqs, req)
	ob.msgs = append(ob.msgs, msg)
	idle := !ob.sending
	ob.sending = true
	c.mu.Unlock()
	if idle {
		c.send(to, ob)
	}
}

// send empties ob, one packet per pass. A packet that does not leave
// fails every request in it at once, into do's re-resolve-and-retry.
func (c *Client) send(to string, ob *outbox) {
	runtime.Gosched()
	for {
		c.mu.Lock()
		reqs, msgs := ob.reqs, ob.msgs
		if len(msgs) == 0 {
			ob.sending = false
			c.mu.Unlock()
			return
		}
		ob.reqs, ob.msgs = ob.spareReqs[:0], ob.spareMsgs[:0]
		ob.packing.Lock()
		c.mu.Unlock()
		size := 0
		for _, m := range msgs {
			size += proto.SizeHint(m)
		}
		buf := proto.AppendBatch(transport.AcquireBufSize(size), msgs...) //ring:lockok takes a buffer from the pool, never blocks
		// Do not pin the callers' values.
		clear(msgs)
		ob.packing.Unlock()
		Metrics.Packets.Inc()
		if err := c.ep.Send(to, buf); err != nil {
			for _, req := range reqs {
				c.deliver(req, result{err: err})
			}
		}
		ob.spareReqs, ob.spareMsgs = reqs, msgs
	}
}

// abandon ends a call nobody answered in time. It withdraws the waiter
// and, if the request has not left the outbox, the request; if a sender
// is encoding it this instant, it waits for that. A result somebody had
// already taken the waiter to deliver wins over why.
func (c *Client) abandon(to string, req proto.ReqID, ch chan result, why error) result {
	c.mu.Lock()
	_, waiting := c.waiters[req]
	delete(c.waiters, req)
	ob := c.outboxes[to]
	i := slices.Index(ob.reqs, req)
	if i >= 0 {
		ob.reqs = slices.Delete(ob.reqs, i, i+1)
		ob.msgs = slices.Delete(ob.msgs, i, i+1)
	}
	c.mu.Unlock()
	if !waiting {
		return <-ch
	}
	if i < 0 {
		ob.packing.Lock()
		//lint:ignore SA2001 the critical section waited for is the encoder's
		ob.packing.Unlock()
	}
	return result{err: why}
}
