package sim

import (
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
)

// session drives a client.Session — the request logic ringd's clients
// run — on the simulated fabric: its sends go out with Send from its
// address, its wake-ups are events, and the replies to its address are
// its input. Its three users (Client, the chaos workload, the
// elasticity agent) only say what to send and what a reply means.
type session struct {
	*client.Session
	sim  *Sim
	addr string
}

// newSession registers a client address on the fabric.
func newSession(s *Sim, addr string, cfg *proto.Config, timeout time.Duration, retries int) *session {
	d := &session{sim: s, addr: addr}
	d.Session = client.NewSession(d, cfg, timeout, retries)
	s.RegisterClient(addr, func(now time.Duration, _ string, msg proto.Message) {
		if r, ok := msg.(proto.Reply); ok {
			d.Reply(now, r)
		}
	})
	return d
}

func (d *session) Send(to proto.NodeID, _ proto.ReqID, msg proto.Message) {
	d.sim.Send(d.addr, core.NodeAddr(to), msg)
}

func (d *session) At(w client.Wake) {
	d.sim.At(w.At, func(now time.Duration) { d.Wake(now, w) })
}
