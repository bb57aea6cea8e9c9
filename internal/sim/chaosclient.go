package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"ring/internal/client"
	"ring/internal/linearize"
	"ring/internal/proto"
	"ring/internal/store"
)

// This file is the instrumented workload side of the chaos harness:
// closed-loop clients that issue puts/gets/deletes against the
// simulated cluster — retrying and re-resolving through failures with
// the real client library's session (session.go) — and record every
// operation as an invocation/response pair for the linearizability
// checker. All randomness comes from seeded generators, so a run is a
// pure function of its seed.

// ChaosOptions parameterizes a chaos workload.
type ChaosOptions struct {
	// Seed drives key/op selection; each client derives its own rng.
	Seed int64
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Keys is the keyspace size. Small keyspaces maximize contention,
	// which is what shakes out consistency bugs.
	Keys int
	// OpsPerClient bounds each client's operation count.
	OpsPerClient int
	// OpTimeout is how long a client waits for a reply before
	// re-resolving and retrying.
	OpTimeout time.Duration
	// OpRetries bounds attempts per operation; past it the operation
	// is abandoned and recorded as pending (it may or may not have
	// taken effect — the checker treats both as allowed).
	OpRetries int
	// ThinkTime paces each client between operations so the workload
	// spans the nemesis window instead of finishing before the first
	// fault fires. RunChaos defaults it to Active/OpsPerClient.
	ThinkTime time.Duration
	// Memgests are the memgest IDs writes are spread over. They must
	// all be reliable schemes (Rep r>=2 or SRS): Rep(1) loses data on
	// a crash by design, which the checker would rightly flag.
	Memgests []proto.MemgestID
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Keys <= 0 {
		o.Keys = 6
	}
	if o.OpsPerClient <= 0 {
		o.OpsPerClient = 50
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 3 * time.Millisecond
	}
	if o.OpRetries <= 0 {
		o.OpRetries = 25
	}
	return o
}

// ChaosHarness owns the chaos clients and the shared history.
type ChaosHarness struct {
	sim     *Sim
	opts    ChaosOptions
	history []linearize.Op
	running int
	nextVal uint64
	// Abandoned counts operations that exhausted their retries.
	Abandoned int
}

// NewChaosHarness registers opts.Clients chaos clients on the fabric.
// Call Run (or Start + manual stepping) afterwards.
func NewChaosHarness(s *Sim, cfg *proto.Config, opts ChaosOptions) *ChaosHarness {
	opts = opts.withDefaults()
	if len(opts.Memgests) == 0 {
		panic("sim: chaos workload needs at least one reliable memgest")
	}
	h := &ChaosHarness{sim: s, opts: opts, nextVal: 1}
	for i := 0; i < opts.Clients; i++ {
		c := &chaosClient{
			session: newSession(s, fmt.Sprintf("client/chaos%d", i), cfg.Clone(), opts.OpTimeout, opts.OpRetries),
			h:       h,
			idx:     i,
			rng:     rand.New(rand.NewSource(opts.Seed*1_000_003 + int64(i)*7919)),
			left:    opts.OpsPerClient,
		}
		h.running++
		// Stagger starts so clients do not move in lockstep.
		s.At(s.Now()+time.Duration(i)*20*time.Microsecond, c.startNext)
	}
	return h
}

// Run drives the simulation until every client finished or the horizon
// passed (ticks keep the event queue non-empty forever, so a horizon
// is required), then returns the recorded history. Operations still
// in flight at the horizon remain pending in the history.
func (h *ChaosHarness) Run(horizon time.Duration) []linearize.Op {
	for h.running > 0 && h.sim.Now() < horizon && h.sim.Step() {
	}
	return h.history
}

// History returns the recorded history so far.
func (h *ChaosHarness) History() []linearize.Op { return h.history }

// Done reports whether every client completed its operations.
func (h *ChaosHarness) Done() bool { return h.running == 0 }

// chaosClient is one closed-loop workload client: it generates
// operations and records them in the shared history; sending, retrying
// and re-resolving are the session's.
type chaosClient struct {
	*session
	h    *ChaosHarness
	idx  int
	rng  *rand.Rand
	left int
}

// scheduleNext queues the next operation after the think-time pause.
func (c *chaosClient) scheduleNext(now time.Duration) {
	if c.h.opts.ThinkTime <= 0 {
		c.startNext(now)
		return
	}
	c.sim.At(now+c.h.opts.ThinkTime, c.startNext)
}

func (c *chaosClient) startNext(now time.Duration) {
	if c.left == 0 {
		c.h.running--
		return
	}
	c.left--
	var kind linearize.Kind
	switch r := c.rng.Intn(10); {
	case r < 5:
		kind = linearize.KPut
	case r < 9:
		kind = linearize.KGet
	default:
		kind = linearize.KDelete
	}
	key := fmt.Sprintf("k%d", c.rng.Intn(c.h.opts.Keys))
	mg := c.h.opts.Memgests[c.rng.Intn(len(c.h.opts.Memgests))]
	var arg uint64
	if kind == linearize.KPut {
		arg = c.h.nextVal
		c.h.nextVal++
	}
	histIdx := len(c.h.history)
	c.h.history = append(c.h.history, linearize.Op{
		Client: c.idx,
		Kind:   kind,
		Key:    key,
		Arg:    arg,
		Invoke: now,
	})
	c.Start(now, client.OpFuncs(func(cfg *proto.Config, req proto.ReqID) (proto.NodeID, proto.Message) {
		to := cfg.CoordinatorOf(store.KeyHash(key))
		switch kind {
		case linearize.KPut:
			return to, &proto.Put{Req: req, Key: key, Value: chaosValue(arg), Memgest: mg}
		case linearize.KGet:
			return to, &proto.Get{Req: req, Key: key}
		default:
			return to, &proto.Delete{Req: req, Key: key}
		}
	}, func(now time.Duration, r proto.Reply) bool {
		if r == nil {
			// Out of attempts: the operation stays pending in the history
			// (it may or may not have taken effect).
			c.h.Abandoned++
			c.scheduleNext(now)
			return true
		}
		// Only an answer completes an operation in the history; StRetry,
		// StWrongNode, StUnavailable and anything else is tried again.
		st := r.Result()
		if st != proto.StOK && st != proto.StNotFound {
			return false
		}
		rec := &c.h.history[histIdx]
		rec.Return = now
		rec.Done = true
		if gr, ok := r.(*proto.GetReply); ok {
			rec.Found = st == proto.StOK
			if rec.Found {
				rec.Val = chaosObserved(gr.Value)
			}
		}
		c.scheduleNext(now)
		return true
	}))
}

// chaosValue encodes a write's value: the 8-byte argument followed by
// deterministic filler of value-dependent length, so different writes
// exercise different block layouts and a read can recover the
// argument from the first 8 bytes.
func chaosValue(arg uint64) []byte {
	n := 8 + int(arg%121)
	v := make([]byte, n)
	binary.BigEndian.PutUint64(v, arg)
	for i := 8; i < n; i++ {
		v[i] = byte(arg) + byte(i)
	}
	return v
}

// chaosObserved recovers the argument hash from a read value.
func chaosObserved(v []byte) uint64 {
	if len(v) >= 8 {
		return binary.BigEndian.Uint64(v)
	}
	f := fnv.New64a()
	f.Write(v)
	return f.Sum64()
}
