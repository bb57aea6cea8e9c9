//go:build !linux

package transport

import (
	"math"
	"time"
)

// poller is, off Linux, a read loop per connection and an accept loop,
// which queue copies of the frames they read on one inbox that Poll
// drains.
type poller struct {
	inbox chan Packet
	done  chan struct{}
	timer deadlineTimer // Poll's
}

// sendq is empty off Linux: Send writes in the caller, waiting for room.
type sendq struct{}

func (e *tcpEndpoint) start() error {
	e.inbox = make(chan Packet, 1)
	e.done = make(chan struct{})
	go e.acceptLoop()
	return nil
}

func (e *tcpEndpoint) stop() { close(e.done) }

func (e *tcpEndpoint) watch(c *tcpConn) error {
	go e.readLoop(c)
	return nil
}

func (e *tcpEndpoint) unwatch(*tcpConn) {}

// Poll implements Endpoint over the inbox the read loops fill.
func (e *tcpEndpoint) Poll(deadline time.Time, max int, deliver func(from string, payload []byte)) (int, error) {
	return pollChan(e.inbox, e.done, &e.timer, deadline, max, deliver)
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		e.adopt(c)
		e.mu.Unlock()
	}
}

// readLoop reads c until it ends, queueing a pooled copy of each frame.
func (e *tcpEndpoint) readLoop(c *tcpConn) {
	defer e.forget(c)
	buf := make([]byte, readBuf)
	deliver := func(from string, payload []byte) {
		if from != c.last {
			e.heard(c, from)
		}
		p := Packet{From: from, Payload: append(AcquireBufSize(len(payload)), payload...)}
		select {
		case e.inbox <- p:
			countRecv(payload, len(e.inbox))
		case <-e.done:
			ReleaseBuf(p.Payload)
		}
	}
	for {
		k, err := c.Read(c.in.space(buf))
		if _, _, ferr := c.in.got(buf, k, math.MaxInt, deliver); ferr != nil || err != nil {
			return
		}
	}
}

// write sends payload's frame on c, waiting for room. It takes the
// payload either way.
func (e *tcpEndpoint) write(c *tcpConn, payload []byte) error {
	err := writeFrame(c.Conn, e.addr, payload)
	if err == nil {
		countSend(payload)
	}
	ReleaseBuf(payload)
	return err
}
