package experiments

import (
	"fmt"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/sim"
	"ring/internal/store"
)

// Fig12Point is one sample of the coordinator-recovery experiment.
type Fig12Point struct {
	// MetaBytes is the metadata volume the replacement node installed.
	MetaBytes uint64
	// Latency is the time from the crash to the replacement serving
	// again (leader detection + reconfiguration + metadata transfer +
	// volatile-hashtable rebuild — steps 1-6 of Section 6.4).
	Latency time.Duration
	Keys    int
}

// Fig12Recovery reproduces Figure 12: metadata recovery latency as a
// function of recovered metadata size. Each key-count populates the
// cluster, kills coordinator 1, and measures in virtual time until the
// promoted spare serves again.
func Fig12Recovery(keyCounts []int) ([]Fig12Point, error) {
	if len(keyCounts) == 0 {
		keyCounts = []int{2048, 4096, 8192, 16384, 32768, 65536, 131072}
	}
	var out []Fig12Point
	for _, keys := range keyCounts {
		p, err := recoverOnce(keys)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func recoverOnce(keys int) (Fig12Point, error) {
	// Block size scaled so the SRS heaps hold the largest key counts.
	spec := PaperSpec(1 << 20)
	s, err := sim.NewFromSpec(spec, sim.DefaultModel())
	if err != nil {
		return Fig12Point{}, err
	}
	cfg, _ := core.BootConfig(spec)
	c := sim.NewClient(s, "rec", cfg)
	val := make([]byte, 32)
	// Populate every memgest so the failed shard has metadata in all
	// seven metadata hashtables.
	for i := 0; i < keys; i++ {
		mg := proto.MemgestID(i%len(PaperSchemes) + 1)
		key := fmt.Sprintf("f12-%08d", i)
		if _, pr, err := c.PutSync(key, val, mg); err != nil || pr.Status != proto.StOK {
			return Fig12Point{}, fmt.Errorf("fig12 populate %s: %v (%+v)", key, err, pr)
		}
	}
	const dead, spare = proto.NodeID(1), proto.NodeID(5)
	killAt := s.Now()
	s.Kill(dead)
	s.EnableTicks(5 * time.Microsecond)
	deadline := killAt + 5*time.Second
	for s.Now() < deadline {
		if !s.Step() {
			break
		}
		n := s.Node(spare)
		if n.Config().Epoch >= 2 && int(1) < len(n.Config().Coords) &&
			n.Config().Coords[1] == spare && n.Serving() {
			return Fig12Point{
				MetaBytes: n.Stats.BytesMetaInstalled,
				Latency:   s.Now() - killAt,
				Keys:      keys,
			}, nil
		}
	}
	return Fig12Point{}, fmt.Errorf("fig12: spare never recovered (keys=%d)", keys)
}

// Fig13Point is one sample of the block-recovery experiment.
type Fig13Point struct {
	Scheme    string
	BlockSize int
	Latency   time.Duration
}

// Fig13BlockRecovery reproduces Figure 13: the latency of the online
// stripe decode for SRS(2,1,3), SRS(3,1,3) and SRS(3,2,3) as a
// function of the recovered block size. The parity master gathers the
// k-1 sibling data blocks, decodes, and returns the block; SRS21
// (k=2) needs one fetch, the k=3 schemes need two, which is exactly
// the separation the figure shows.
func Fig13BlockRecovery(blockSizes []int) ([]Fig13Point, error) {
	if len(blockSizes) == 0 {
		for b := 9; b <= 16; b++ {
			blockSizes = append(blockSizes, 1<<b) // 512 B .. 64 KiB
		}
	}
	var out []Fig13Point
	for _, label := range []string{"SRS21", "SRS31", "SRS32"} {
		for _, bs := range blockSizes {
			lat, err := blockRecoveryOnce(label, bs)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig13Point{Scheme: label, BlockSize: bs, Latency: lat})
		}
	}
	return out, nil
}

func blockRecoveryOnce(label string, blockSize int) (time.Duration, error) {
	spec := PaperSpec(blockSize)
	s, err := sim.NewFromSpec(spec, sim.DefaultModel())
	if err != nil {
		return 0, err
	}
	cfg, _ := core.BootConfig(spec)
	c := sim.NewClient(s, "blk", cfg)
	mg := MemgestID(label)
	// Fill the stripe with data: one block-sized object per shard.
	val := make([]byte, blockSize)
	for i := range val {
		val[i] = byte(i)
	}
	shardFilled := make(map[int]bool)
	for i := 0; len(shardFilled) < 3 && i < 64; i++ {
		key := fmt.Sprintf("f13-%s-%d", label, i)
		shard := cfg.ShardOf(store.KeyHash(key))
		if shardFilled[shard] {
			continue
		}
		if _, pr, err := c.PutSync(key, val, mg); err != nil || pr.Status != proto.StOK {
			return 0, fmt.Errorf("fig13 fill: %v (%v)", err, pr)
		}
		shardFilled[shard] = true
	}
	// Ask parity node 0 to decode logical block 0 (owned by shard 0).
	parity := cfg.Memgests[mg-1].Redundant[0]
	var done time.Duration
	s.RegisterClient("client/f13", func(now time.Duration, _ string, msg proto.Message) {
		if r, ok := msg.(*proto.FetchReply); ok && r.Status == proto.StOK {
			done = now
		}
	})
	start := s.Now()
	s.Send("client/f13", core.NodeAddr(parity), &proto.Fetch{Req: 99, Memgest: mg, Block: 0})
	s.RunToQuiescence()
	if done == 0 {
		return 0, fmt.Errorf("fig13: no recovery reply for %s/%d", label, blockSize)
	}
	return done - start, nil
}
