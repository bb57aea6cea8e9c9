package sim

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
)

// TestMain switches payload poisoning on for every node these tests
// drive: a handler that keeps a view into a packet, or a message, past
// its return reads junk.
func TestMain(m *testing.M) {
	core.PoisonPayloads = true
	os.Exit(m.Run())
}

func paperSpec() core.ClusterSpec {
	return core.ClusterSpec{
		Shards: 3, Redundant: 2, Spares: 2,
		Memgests: []proto.Scheme{
			proto.Rep(1, 3),    // 1
			proto.Rep(2, 3),    // 2
			proto.Rep(3, 3),    // 3
			proto.Rep(4, 3),    // 4
			proto.SRS(2, 1, 3), // 5
			proto.SRS(3, 1, 3), // 6
			proto.SRS(3, 2, 3), // 7
		},
		Opts: core.Options{BlockSize: 1 << 20},
	}
}

func newSim(t *testing.T) (*Sim, *Client) {
	t.Helper()
	s, err := NewFromSpec(paperSpec(), DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := core.BootConfig(paperSpec())
	return s, NewClient(s, "t", cfg)
}

func TestSimPutGetRoundTrip(t *testing.T) {
	s, c := newSim(t)
	val := bytes.Repeat([]byte("x"), 1024)
	lat, pr, err := c.PutSync("k", val, 7)
	if err != nil || pr.Status != proto.StOK {
		t.Fatalf("put: %v %+v", err, pr)
	}
	if lat <= 0 {
		t.Fatal("zero put latency")
	}
	glat, gr, err := c.GetSync("k")
	if err != nil || gr.Status != proto.StOK || !bytes.Equal(gr.Value, val) {
		t.Fatalf("get: %v %+v", err, gr)
	}
	if glat <= 0 || glat >= lat {
		t.Fatalf("get latency %v should be below SRS32 put latency %v", glat, lat)
	}
	if s.Now() == 0 {
		t.Fatal("virtual clock did not advance")
	}
}

// TestSimLatencyOrdering checks the central qualitative result of
// Figure 7: REP1 < REP2/REP3 < REP4 and SRS(3,2) slowest; get latency
// identical across schemes.
func TestSimLatencyOrdering(t *testing.T) {
	_, c := newSim(t)
	val := bytes.Repeat([]byte("v"), 1024)
	lat := map[proto.MemgestID]time.Duration{}
	for mg := proto.MemgestID(1); mg <= 7; mg++ {
		key := fmt.Sprintf("k-%d", mg)
		l, pr, err := c.PutSync(key, val, mg)
		if err != nil || pr.Status != proto.StOK {
			t.Fatalf("put mg %d: %v", mg, err)
		}
		lat[mg] = l
	}
	if !(lat[1] < lat[2] && lat[2] <= lat[3]) {
		t.Fatalf("REP ordering violated: %v %v %v", lat[1], lat[2], lat[3])
	}
	if !(lat[3] < lat[4]) {
		t.Fatalf("REP4 (quorum 2) must exceed REP3 (quorum 1): %v %v", lat[3], lat[4])
	}
	if !(lat[1] < lat[5]) {
		t.Fatalf("SRS21 must exceed REP1: %v %v", lat[1], lat[5])
	}
	// Paper: SRS21 and SRS31 have the same put latency (both replicate
	// to one parity node).
	ratio := float64(lat[5]) / float64(lat[6])
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("SRS21 vs SRS31 latency should match: %v %v", lat[5], lat[6])
	}
	if !(lat[7] > lat[6]) {
		t.Fatalf("SRS32 (two parity nodes) must be slowest: %v vs %v", lat[7], lat[6])
	}
	// Gets are scheme-independent.
	var getLat []time.Duration
	for mg := proto.MemgestID(1); mg <= 7; mg++ {
		l, _, err := c.GetSync(fmt.Sprintf("k-%d", mg))
		if err != nil {
			t.Fatal(err)
		}
		getLat = append(getLat, l)
	}
	for _, l := range getLat[1:] {
		r := float64(l) / float64(getLat[0])
		if r < 0.95 || r > 1.05 {
			t.Fatalf("get latencies differ across schemes: %v", getLat)
		}
	}
}

// TestSimAbsoluteScale keeps the calibration honest: small-object REP1
// puts and gets must land in the paper's ~5 µs regime (2–10 µs band),
// and SRS32 put must be roughly 2–4x REP1 at 1 KiB.
func TestSimAbsoluteScale(t *testing.T) {
	_, c := newSim(t)
	small := bytes.Repeat([]byte("s"), 64)
	l1, _, _ := c.PutSync("cal-1", small, 1)
	if l1 < 2*time.Microsecond || l1 > 10*time.Microsecond {
		t.Fatalf("REP1 put(64B) = %v, want ~5µs", l1)
	}
	gl, _, _ := c.GetSync("cal-1")
	if gl < 2*time.Microsecond || gl > 10*time.Microsecond {
		t.Fatalf("get(64B) = %v, want ~5µs", gl)
	}
	kib := bytes.Repeat([]byte("k"), 1024)
	lr, _, _ := c.PutSync("cal-2", kib, 1)
	ls, _, _ := c.PutSync("cal-3", kib, 7)
	ratio := float64(ls) / float64(lr)
	if ratio < 1.8 || ratio > 4.5 {
		t.Fatalf("SRS32/REP1 put ratio = %.2f (%v vs %v), want ~3x", ratio, ls, lr)
	}
}

// TestSimMoveCheaperThanPut reproduces the Figure 8 observation: moving
// a large object into a reliable scheme is cheaper than putting it
// there directly, because the value does not cross the client link.
func TestSimMoveCheaperThanPut(t *testing.T) {
	_, c := newSim(t)
	big := bytes.Repeat([]byte("b"), 2048)
	if _, pr, err := c.PutSync("mv", big, 1); err != nil || pr.Status != proto.StOK {
		t.Fatal(err)
	}
	mlat, mr, err := c.MoveSync("mv", 7)
	if err != nil || mr.Status != proto.StOK {
		t.Fatalf("move: %v", err)
	}
	plat, _, _ := c.PutSync("direct", big, 7)
	if mlat >= plat {
		t.Fatalf("move (%v) should beat direct put (%v) for 2KiB", mlat, plat)
	}
	// Move to the unreliable scheme is nearly size-independent.
	if _, _, err := c.PutSync("mv2", big, 7); err != nil {
		t.Fatal(err)
	}
	m1, _, _ := c.MoveSync("mv2", 1)
	if _, _, err := c.PutSync("mv3", bytes.Repeat([]byte("b"), 64), 7); err != nil {
		t.Fatal(err)
	}
	m2, _, _ := c.MoveSync("mv3", 1)
	ratio := float64(m1) / float64(m2)
	if ratio > 1.6 {
		t.Fatalf("move-to-REP1 latency should be ~size-independent: 2KiB %v vs 64B %v", m1, m2)
	}
}

// TestSimThroughputSaturation drives an open-loop load and checks that
// a single-threaded coordinator saturates: offered load beyond the
// service rate must not increase completions proportionally.
func TestSimThroughputSaturation(t *testing.T) {
	s, c := newSim(t)
	val := bytes.Repeat([]byte("t"), 1024)
	done := 0
	// Offer 2M puts/sec to one coordinator for 50ms of virtual time.
	interval := 500 * time.Nanosecond
	n := 0
	for at := time.Duration(0); at < 50*time.Millisecond; at += interval {
		key := "hot" // single shard
		c.PutAt(at, key, val, 1, func(time.Duration, *proto.PutReply) { done++ })
		n++
	}
	s.RunToQuiescence()
	if done != n {
		t.Fatalf("lost replies: %d of %d", done, n)
	}
	elapsed := s.Now()
	rate := float64(done) / elapsed.Seconds()
	// The single-threaded coordinator should cap out in the hundreds
	// of thousands per second, far below the 2M offered.
	if rate > 1.6e6 {
		t.Fatalf("coordinator served %.0f puts/sec: cost model too cheap", rate)
	}
	if rate < 1e5 {
		t.Fatalf("coordinator served only %.0f puts/sec: cost model too expensive", rate)
	}
}

// TestSimRecovery runs the coordinator-failure experiment inside the
// simulator: kill a coordinator, let the (virtual-time) heartbeats
// elect and promote, and verify data survives.
func TestSimRecovery(t *testing.T) {
	spec := paperSpec()
	spec.Opts.FailAfter = 100 * time.Microsecond
	s, err := NewFromSpec(spec, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := core.BootConfig(spec)
	c := NewClient(s, "r", cfg)

	val := bytes.Repeat([]byte("r"), 512)
	var stored []string
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("rk-%d", i)
		if _, pr, err := c.PutSync(key, val, 7); err != nil || pr.Status != proto.StOK {
			t.Fatal(err)
		}
		stored = append(stored, key)
	}
	// Kill coordinator 1 and run ticks for a while.
	s.Kill(1)
	s.EnableTicks(10 * time.Microsecond)
	s.Run(s.Now() + 10*time.Millisecond)

	lead := s.Node(0)
	if lead.Config().Epoch < 2 {
		t.Fatal("no reconfiguration in virtual time")
	}
	// Route with the new config.
	c.SetConfig(lead.Config().Clone())
	for _, key := range stored {
		_, gr, err := c.GetSync(key)
		if err != nil || gr.Status != proto.StOK || !bytes.Equal(gr.Value, val) {
			t.Fatalf("get %s after simulated failover: %v %v", key, err, gr.Status)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() (time.Duration, uint64) {
		s, err := NewFromSpec(paperSpec(), DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		cfg, _ := core.BootConfig(paperSpec())
		c := NewClient(s, "d", cfg)
		for i := 0; i < 20; i++ {
			c.PutAt(time.Duration(i)*time.Microsecond, fmt.Sprintf("k%d", i%5),
				bytes.Repeat([]byte{byte(i)}, 256), proto.MemgestID(i%7+1), nil)
		}
		s.RunToQuiescence()
		return s.Now(), s.Delivered
	}
	t1, d1 := run()
	t2, d2 := run()
	if t1 != t2 || d1 != d2 {
		t.Fatalf("simulation not deterministic: (%v,%d) vs (%v,%d)", t1, d1, t2, d2)
	}
}

// TestSimMoveRetryAfterLostFanout loses a move's destination fan-out
// once and retries the move. The uncommitted destination version must
// not stay the key's highest forever: the window times out, the first
// attempt is answered StRetry, and the retry — parked on the window
// meanwhile — runs and succeeds. (Before moves had a window timeout the
// retry parked on the stuck version and neither attempt was ever
// answered.)
func TestSimMoveRetryAfterLostFanout(t *testing.T) {
	const tick = 100 * time.Microsecond
	spec := paperSpec()
	spec.Opts.FailAfter = time.Millisecond
	s, err := NewFromSpec(spec, DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := core.BootConfig(spec)
	c := NewClient(s, "t", cfg)
	val := bytes.Repeat([]byte("m"), 1024)
	if _, pr, err := c.PutSync("k", val, 3); err != nil || pr.Status != proto.StOK {
		t.Fatalf("put: %v %+v", err, pr)
	}
	s.EnableTicks(tick)

	// The move's destination is SRS(3,2): its fan-out is ParityUpdate.
	s.SetFaultFunc(func(_ time.Duration, _, _ string, pkt []byte) FaultAction {
		return FaultAction{Drop: carries(pkt, proto.TParityUpdate) > 0}
	})
	var first, retry *proto.PutReply
	c.MoveAt(s.Now(), "k", 7, func(_ time.Duration, r *proto.PutReply) { first = r })
	s.Run(s.Now() + 2*tick)
	if first != nil {
		t.Fatalf("move answered although its fan-out was dropped: %+v", first)
	}
	s.SetFaultFunc(nil)
	c.MoveAt(s.Now(), "k", 7, func(_ time.Duration, r *proto.PutReply) { retry = r })
	s.Run(s.Now() + 5*spec.Opts.FailAfter)

	if first == nil || first.Status != proto.StRetry {
		t.Fatalf("first attempt: %+v, want StRetry from the window timeout", first)
	}
	if retry == nil || retry.Status != proto.StOK {
		t.Fatalf("retried move: %+v, want OK", retry)
	}
	var got *proto.GetReply
	c.GetAt(s.Now(), "k", func(_ time.Duration, r *proto.GetReply) { got = r })
	s.Run(s.Now() + spec.Opts.FailAfter)
	if got == nil || got.Status != proto.StOK || !bytes.Equal(got.Value, val) || got.Version != retry.Version {
		t.Fatalf("get after the retried move: %+v", got)
	}
}

// carries counts the messages of type t a packet holds.
func carries(pkt []byte, t proto.MsgType) (n int) {
	eachType(pkt, func(mt proto.MsgType) {
		if mt == t {
			n++
		}
	})
	return n
}

// TestSendTakesTheBytes: a message travels as the bytes it had when it
// was sent, so a client that reuses its value buffer afterwards does not
// change what the node stores.
func TestSendTakesTheBytes(t *testing.T) {
	s, c := newSim(t)
	val := bytes.Repeat([]byte("a"), 64)
	c.PutAt(0, "k", val, 3, nil)
	s.Run(time.Nanosecond) // sent, not yet arrived
	copy(val, bytes.Repeat([]byte("b"), len(val)))
	s.RunToQuiescence()
	if _, gr, err := c.GetSync("k"); err != nil || !bytes.Equal(gr.Value, bytes.Repeat([]byte("a"), 64)) {
		t.Fatalf("get after the client reused its buffer: %v %q", err, gr.Value)
	}
}

// TestDupSafePackets: a packet is duplicated only if every message in
// it may be, so a batch that holds a client write, a parity delta or a
// reconfiguration never is, whatever rides along.
func TestDupSafePackets(t *testing.T) {
	ack := &proto.RepAck{Seq: 1}
	if !dupSafe(proto.AppendBatch(nil, ack, &proto.Heartbeat{Epoch: 1})) {
		t.Fatal("a batch of an ack and a heartbeat is not duplicable")
	}
	for _, m := range []proto.Message{
		&proto.Put{Key: "k"}, &proto.Delete{Key: "k"}, &proto.Move{Key: "k"},
		&proto.ParityUpdate{Delta: []byte{1}}, &proto.Reconfig{Op: proto.ReconfigJoin},
	} {
		if dupSafe(proto.AppendBatch(nil, m)) || dupSafe(proto.AppendBatch(nil, ack, m)) {
			t.Errorf("a packet holding a %T may be duplicated", m)
		}
	}
}

// TestChargeCountsItems: a run costs what its entries would alone, and
// a purge a commit carries what a Purge costs: three acks folded into
// one cost three single acks, and a commit of two entries carrying two
// purges two commits and two Purges.
func TestChargeCountsItems(t *testing.T) {
	s := &Sim{Model: DefaultModel()}
	ack := func(seq proto.Seq) proto.Message { return &proto.RepAck{Memgest: 1, Seq: seq} }
	if run, three := s.charge(proto.Encode(&proto.RepAck{Memgest: 1, Seq: 7, More: 2})), 3*s.charge(proto.Encode(ack(7))); run != three {
		t.Errorf("a run of three acks costs %v, three acks %v", run, three)
	}
	if run, three := s.charge(proto.Encode(&proto.ParityAck{Memgest: 1, Seq: 7, More: 2})), s.charge(proto.AppendBatch(nil, ack(7), ack(8), ack(9))); run != three {
		t.Errorf("a run of three parity acks costs %v, three acks in a packet %v", run, three)
	}
	purges := proto.AppendPurge(proto.AppendPurge(nil, "a", 1), "b", 2)
	carried := s.charge(proto.Encode(&proto.RepCommit{Memgest: 1, Seq: 7, More: 1, Purges: purges}))
	alone := s.charge(proto.AppendBatch(nil,
		&proto.RepCommit{Memgest: 1, Seq: 7}, &proto.Purge{Memgest: 1, Key: "a", Version: 1},
		&proto.RepCommit{Memgest: 1, Seq: 8}, &proto.Purge{Memgest: 1, Key: "b", Version: 2}))
	if carried != alone {
		t.Errorf("a commit of two entries carrying two purges costs %v, the four messages %v", carried, alone)
	}
}
