package client

import (
	"runtime"
	"slices"
	"sync"

	"ring/internal/proto"
	"ring/internal/transport"
)

// The client's half of the per-destination coalescing every node does
// (core.Host.Pack): the requests concurrent callers address to one
// node leave in one packet, not one packet each. There is no sender
// goroutine and no timer. A call appends its message to the
// destination's outbox; the caller that finds the outbox idle becomes
// its sender, yields the processor once, then packs what is queued into
// one TBatch (a lone request stays its plain envelope), as much as fits
// the buffer a node reads a packet into, sends it, and goes on until
// the outbox is empty, while the callers that came after it only append
// and wait for their replies.
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
	to string
	// reqs and msgs are the queued requests, index for index.
	reqs []proto.ReqID
	msgs []proto.Message
	// sending is set while some caller is the outbox's sender.
	sending bool
	// spareReqs and spareMsgs are the previous packet's slices, which
	// the sender swaps in for the ones it takes.
	spareReqs []proto.ReqID
	spareMsgs []proto.Message
	// packing is held while the sender encodes the messages it took: an
	// operation that ends may not return, and let its caller reuse the
	// bytes a message points at, until the encoder is done with them.
	packing sync.Mutex
}

// queue appends msg for `to`, under c.mu; an idle outbox is claimed
// for the caller to send.
func (c *Client) queue(to string, req proto.ReqID, msg proto.Message) {
	ob := c.outboxes[to]
	if ob == nil {
		ob = &outbox{to: to}
		c.outboxes[to] = ob
	}
	ob.reqs = append(ob.reqs, req)
	ob.msgs = append(ob.msgs, msg)
	if !ob.sending {
		ob.sending = true
		c.claimed = append(c.claimed, ob)
	}
}

// send empties ob, one packet per pass. A packet takes the queued
// requests in order while they fit transport.MaxPacket, by
// proto.SizeHint, and a request longer than that alone; what does not
// fit stays queued for the next pass. A packet that does not leave is a
// transient answer to every request in it at once.
func (c *Client) send(ob *outbox) {
	runtime.Gosched()
	for {
		c.mu.Lock()
		reqs, msgs := ob.reqs, ob.msgs
		if len(msgs) == 0 {
			ob.sending = false
			c.mu.Unlock()
			return
		}
		n, size := 0, 0
		for ; n < len(msgs); n++ {
			hint := proto.SizeHint(msgs[n])
			if n > 0 && size+hint > transport.MaxPacket {
				break
			}
			size += hint
		}
		ob.reqs = append(ob.spareReqs[:0], reqs[n:]...)
		ob.msgs = append(ob.spareMsgs[:0], msgs[n:]...)
		ob.packing.Lock()
		c.mu.Unlock()
		buf := proto.AppendBatch(transport.AcquireBufSize(size), msgs[:n]...) //ring:lockok takes a buffer from the pool, never blocks
		// Do not pin the callers' values.
		clear(msgs)
		ob.packing.Unlock()
		Metrics.Packets.Inc()
		if err := c.ep.Send(ob.to, buf); err != nil {
			c.failed(reqs[:n])
		}
		ob.spareReqs, ob.spareMsgs = reqs, msgs
	}
}

// forget, under c.mu, which it releases, takes every queued attempt of
// k (a resend may sit beside the first, under the same ReqID) out of
// the outboxes and waits for any encoder at work, so that k's caller
// may reuse what its messages point at. A lone attempt that was
// answered has left already.
func (c *Client) forget(k *call) {
	if k.attempts > 0 || k.reply == nil {
		for _, ob := range c.outboxes {
			for i := slices.Index(ob.reqs, k.req); i >= 0; i = slices.Index(ob.reqs, k.req) {
				ob.reqs = slices.Delete(ob.reqs, i, i+1)
				ob.msgs = slices.Delete(ob.msgs, i, i+1)
			}
			ob.packing.Lock()
			//lint:ignore SA2001 the critical section waited for is the encoder's
			ob.packing.Unlock()
		}
	}
	c.mu.Unlock()
}
