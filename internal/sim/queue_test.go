package sim

import (
	"testing"
	"time"

	"ring/internal/core"
	"ring/internal/proto"
)

// TestCPUQueueSerializes: two client requests arriving together at one
// node share one CPU slot, as they would share one drain in ringd, so
// both replies leave at the end of that batch — and the second request
// still pays for the first's service time, single-threaded server
// semantics: it takes at least one dispatch longer than a lone put.
func TestCPUQueueSerializes(t *testing.T) {
	s, c := newSim(t)
	val := make([]byte, 1024)
	// Same key -> same coordinator.
	lone, _, err := c.PutSync("q", val, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lat1, lat2 time.Duration
	c.PutAt(s.Now(), "q", val, 1, func(l time.Duration, r *proto.PutReply) { lat1 = l })
	c.PutAt(s.Now(), "q", val, 1, func(l time.Duration, r *proto.PutReply) { lat2 = l })
	s.RunToQuiescence()
	if lat1 == 0 || lat2 == 0 {
		t.Fatal("puts did not complete")
	}
	if lat2 < lone+s.Model.CPUFixed {
		t.Fatalf("second request (%v) must queue behind the first: a lone put takes %v", lat2, lone)
	}
	// The gap is at most one service time, well below a full round trip.
	if lat2-lat1 > lat1 {
		t.Fatalf("queueing gap %v implausibly large", lat2-lat1)
	}
}

// TestIndependentNodesRunInParallel: requests to different coordinators
// do not queue behind each other.
func TestIndependentNodesRunInParallel(t *testing.T) {
	s, c := newSim(t)
	val := make([]byte, 1024)
	// Find two keys on different shards.
	cfg, _ := core.BootConfig(paperSpec())
	key1, key2 := "a0", ""
	for i := 0; i < 100 && key2 == ""; i++ {
		k := "b" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		if cfg.CoordinatorOf(hashOf(k)) != cfg.CoordinatorOf(hashOf(key1)) {
			key2 = k
		}
	}
	if key2 == "" {
		t.Fatal("no second shard key found")
	}
	var lat1, lat2 time.Duration
	c.PutAt(0, key1, val, 1, func(l time.Duration, _ *proto.PutReply) { lat1 = l })
	c.PutAt(0, key2, val, 1, func(l time.Duration, _ *proto.PutReply) { lat2 = l })
	s.RunToQuiescence()
	ratio := float64(lat2) / float64(lat1)
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("independent shards should have similar latency: %v vs %v", lat1, lat2)
	}
}

// TestBytesOnWireAccounting: the counter grows with payload size.
func TestBytesOnWireAccounting(t *testing.T) {
	s, c := newSim(t)
	if _, _, err := c.PutSync("w", make([]byte, 64), 1); err != nil {
		t.Fatal(err)
	}
	small := s.BytesOnWire
	if small == 0 {
		t.Fatal("no bytes accounted")
	}
	if _, _, err := c.PutSync("w2", make([]byte, 4096), 1); err != nil {
		t.Fatal(err)
	}
	if s.BytesOnWire-small < 4096 {
		t.Fatalf("large put accounted only %d bytes", s.BytesOnWire-small)
	}
}

// TestControlMessageClassification: client ops are never control
// messages, acks and ticks always are, the redundancy plane costs its
// own rate, and a batched packet costs the sum of its messages.
func TestControlMessageClassification(t *testing.T) {
	s := &Sim{Model: DefaultModel()}
	m := s.Model
	pkt := func(msgs ...proto.Message) []byte { return proto.AppendBatch(nil, msgs...) }
	for _, tc := range []struct {
		name string
		pkt  []byte
		want time.Duration
	}{
		{"get", pkt(&proto.Get{Key: "k"}), m.CPUFixed},
		{"put", pkt(&proto.Put{Key: "k"}), m.CPUFixed},
		{"acks", pkt(&proto.RepAck{}, &proto.ParityAck{}), m.CPUFixed / 2},
		{"tick", nil, m.CPUFixed / 4},
		{"replication plane", pkt(&proto.RepAppend{}, &proto.ParityUpdate{}), 2 * m.CPUFixedRepl},
		{"mixed", pkt(&proto.Get{}, &proto.RepAck{}, &proto.Purge{}), m.CPUFixed + m.CPUFixed/4 + m.CPUFixedRepl},
	} {
		if got := s.charge(tc.pkt); got != tc.want {
			t.Errorf("%s costs %v, want %v", tc.name, got, tc.want)
		}
	}
}

func hashOf(key string) uint64 {
	// mirrors store.KeyHash without the import cycle risk in tests
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}
