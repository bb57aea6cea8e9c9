package proto

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func sampleConfig() *Config {
	return &Config{
		Epoch:     7,
		Leader:    2,
		Coords:    []NodeID{0, 1, 2},
		Redundant: []NodeID{3, 4},
		Spares:    []NodeID{5},
		Memgests: []MemgestInfo{
			{ID: 1, Scheme: SRS(3, 2, 3), Redundant: []NodeID{3, 4}},
			{ID: 2, Scheme: Rep(3, 3), Redundant: []NodeID{3, 4}},
			{ID: 3, Scheme: Rep(1, 3), Redundant: nil},
		},
		Default: 2,
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Encode(m)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	rec := MetaRecord{Key: "user:42", Version: 9, Memgest: 3, Committed: true, Tombstone: false, Length: 1024, LocBlock: 2, LocOff: 4096}
	msgs := []Message{
		&Put{Req: 1, Key: "k", Value: []byte("v"), Memgest: 2},
		&Put{Req: 2, Key: "", Value: nil, Memgest: 0},
		&PutReply{Req: 1, Status: StOK, Version: 5},
		&Get{Req: 3, Key: "key"},
		&Get{Req: 31, Key: "key", Version: 7},
		&GetReply{Req: 3, Status: StNotFound, Version: 0, Value: nil},
		&GetReply{Req: 4, Status: StOK, Version: 2, Value: []byte{1, 2, 3}},
		&Delete{Req: 5, Key: "gone"},
		&DeleteReply{Req: 5, Status: StOK},
		&Move{Req: 6, Key: "k", Memgest: 9},
		&Move{Req: 16, Key: "k", Memgest: 4, From: 2},
		&Move{Req: 17, Key: "user:", Memgest: 3, Prefix: true},
		&MoveReply{Req: 6, Status: StRetry, Version: 3},
		&MoveReply{Req: 17, Status: StOK, Moved: 2},
		&Resolve{Req: 11},
		&ResolveReply{Req: 11, Config: sampleConfig()},
		&RepAppend{Memgest: 2, Shard: 1, Seq: 44, Rec: rec, Value: []byte("payload")},
		&RepAck{Memgest: 2, Shard: 1, Seq: 44},
		&RepCommit{Memgest: 2, Shard: 1, Seq: 44},
		&ParityUpdate{Memgest: 1, Shard: 0, Seq: 45, Rec: rec, Block: 3, StripeOff: 1, Off: 128, Delta: []byte{9, 9}},
		&ParityAck{Memgest: 1, Shard: 0, Seq: 45},
		&Purge{Memgest: 1, Shard: 0, Key: "old", Version: 1},
		&Heartbeat{Epoch: 3},
		&HeartbeatAck{Epoch: 3},
		&ConfigPush{Config: sampleConfig()},
		&ConfigAck{Epoch: 7},
		&MetaFetch{Req: 12, Memgest: 1, Shard: 2, Since: 99},
		&MetaFetchReply{Req: 12, Status: StOK, Memgest: 1, Shard: 2, Seq: 100, Recs: []MetaRecord{rec, {Key: "b"}}},
		&Fetch{Req: 13, Memgest: 2, Shard: 0, Key: "k", Version: 7, Block: 5},
		&FetchReply{Req: 13, Status: StOK, Data: []byte("data")},
		&Join{Node: 3, Epoch: 9, Durable: true},
		&Reconfig{Req: 18, Op: ReconfigLeave, Node: 5},
		&Reconfig{Req: 7, Op: ReconfigCreate, Scheme: SRS(2, 1, 3)},
		&Reconfig{Req: 8, Op: ReconfigDelete, Memgest: 4},
		&ReconfigReply{Req: 18, Status: StOK, Moved: 4, Epoch: 11},
		&ReconfigReply{Req: 7, Status: StOK, Epoch: 12, Memgest: 8},
	}
	seen := make(map[MsgType]bool)
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%T round trip mismatch:\n got %#v\nwant %#v", m, got, m)
		}
		seen[m.Type()] = true
		// IsAck is what a durable node counts to decide whether a batch
		// owes a sync: the messages that tell their receiver something
		// happened at the sender. The tree names exactly those *Reply and
		// *Ack; predicate and naming must stay in step.
		name := reflect.TypeOf(m).Elem().Name()
		if byName := strings.HasSuffix(name, "Reply") || strings.HasSuffix(name, "Ack"); m.Type().IsAck() != byName {
			t.Errorf("%s: IsAck() = %v, but the *Reply / *Ack naming says %v", name, m.Type().IsAck(), byName)
		}
	}
	// Every defined message type must be covered.
	for ty := TPut; ty < tEnd; ty++ {
		if !seen[ty] {
			t.Errorf("message type %d not covered by round-trip test", ty)
		}
	}
}

// normalize maps nil and empty slices to a canonical form so
// DeepEqual tolerates the decode side allocating empty slices.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *Put:
		if len(v.Value) == 0 {
			v.Value = nil
		}
	case *GetReply:
		if len(v.Value) == 0 {
			v.Value = nil
		}
	case *FetchReply:
		if len(v.Data) == 0 {
			v.Data = nil
		}
	case *ResolveReply:
		normalizeConfig(v.Config)
	case *ConfigPush:
		normalizeConfig(v.Config)
	case *MetaFetchReply:
		if len(v.Recs) == 0 {
			v.Recs = nil
		}
	}
	return m
}

func normalizeConfig(c *Config) {
	if len(c.Coords) == 0 {
		c.Coords = nil
	}
	if len(c.Redundant) == 0 {
		c.Redundant = nil
	}
	if len(c.Spares) == 0 {
		c.Spares = nil
	}
	for i := range c.Memgests {
		if len(c.Memgests[i].Redundant) == 0 {
			c.Memgests[i].Redundant = nil
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	if _, err := Decode([]byte{200}); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Truncate a valid message at every possible length; none may
	// panic and all but the full length must error.
	full := Encode(&ResolveReply{Req: 1, Config: sampleConfig()})
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", n, len(full))
		}
	}
	if _, err := Decode(full); err != nil {
		t.Fatalf("full message rejected: %v", err)
	}
	// Trailing garbage must be rejected.
	if _, err := Decode(append(append([]byte{}, full...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeHugeLengthPrefix(t *testing.T) {
	// A length prefix far beyond the buffer must fail cleanly, not
	// attempt a giant allocation: a Get of key "abc" whose key length
	// (after the type and a one-byte ReqID) reads 2^31 - 1.
	buf := []byte{byte(TGet), 1, 0xff, 0xff, 0xff, 0xff, 0x07, 'a', 'b', 'c', 0}
	if _, err := Decode(buf); err == nil {
		t.Fatal("huge length accepted")
	}
}

// TestWireSizes pins the encoded size of the messages a Rep(3,3) put
// and get send, at the field values a long benchmark run reaches
// (ReqID and Seq near 10^5, a hot key's Version near 10^3, an 8-byte
// key, a 1 KiB value). Before every integer became a varint, with
// 8-byte ReqID/Seq/Version and 4-byte memgest, shard and lengths:
//
//	message          fixed  varint
//	RepAppend 1 KiB   1083    1050
//	RepAck              17       6
//	RepCommit           17       6
//	Purge               29      14
//	PutReply            18       7
//	GetReply 1 KiB    1046    1033
func TestWireSizes(t *testing.T) {
	const (
		req = ReqID(123456)
		seq = Seq(123456)
		ver = Version(1000)
		key = "0001e240"
	)
	val := make([]byte, 1024)
	rec := MetaRecord{Key: key, Version: ver, Memgest: 2, Length: 1024}
	for _, tc := range []struct {
		m    Message
		want int
	}{
		{&RepAppend{Memgest: 2, Shard: 1, Seq: seq, Rec: rec, Value: val}, 1050},
		{&RepAck{Memgest: 2, Shard: 1, Seq: seq}, 6},
		{&RepCommit{Memgest: 2, Shard: 1, Seq: seq}, 6},
		{&Purge{Memgest: 2, Shard: 1, Key: key, Version: ver}, 14},
		{&PutReply{Req: req, Status: StOK, Version: ver}, 7},
		{&GetReply{Req: req, Status: StOK, Version: ver, Value: val}, 1033},
	} {
		if got := len(Encode(tc.m)); got != tc.want {
			t.Errorf("%T encodes to %d bytes, want %d", tc.m, got, tc.want)
		}
	}
}

// TestReconfigWireSizes pins a join's and a leave's length, and their
// replies', to those of the membership-only request and reply that
// Reconfig replaced: [tag][Req][Op][Node] and
// [tag][Req][Status][Moved][Epoch], the memgest fields left off. The
// control plane's first ops keep their sizes, and so does every
// simulated run that resizes.
func TestReconfigWireSizes(t *testing.T) {
	varint := map[uint64]int{1: 1, 127: 1, 128: 2, 1 << 32: 5}
	for v, n := range varint {
		node := NodeID(min(v, math.MaxUint32))
		for _, op := range []ReconfigOp{ReconfigJoin, ReconfigLeave} {
			if got, want := len(Encode(&Reconfig{Req: ReqID(v), Op: op, Node: node})), 1+n+1+n; got != want {
				t.Errorf("op %d, Req and Node %d: %d bytes, want %d", op, v, got, want)
			}
		}
		for _, st := range []Status{StOK, StRetry} {
			if got, want := len(Encode(&ReconfigReply{Req: ReqID(v), Status: st, Moved: 3, Epoch: Epoch(v)})), 1+n+1+1+n; got != want {
				t.Errorf("reply %v, Req and Epoch %d: %d bytes, want %d", st, v, got, want)
			}
		}
	}
}

// TestParseScheme is the operator's scheme grammar ringd's -memgests
// and ringctl's verbs share: repR and srsK.M in any case, spaces
// around them, validated against the shard count.
func TestParseScheme(t *testing.T) {
	for tok, want := range map[string]Scheme{
		"rep1":     Rep(1, 3),
		"rep3":     Rep(3, 3),
		" rep3 ":   Rep(3, 3),
		"srs3.2":   SRS(3, 2, 3),
		" SRS3.2 ": SRS(3, 2, 3),
		"Srs2.1":   SRS(2, 1, 3),
		"REP4":     Rep(4, 3),
	} {
		if got, err := ParseScheme(tok, 3); err != nil || got != want {
			t.Errorf("%q: %v, %v; want %v", tok, got, err, want)
		}
	}
	for _, bad := range []string{
		"", "rep", "repx", "repq", "rep-1", "rep0", "rep 3", "srs", "srs3", "srs3.", "srs.2", "srsx.2",
		"srs3.x", "srsa.b", "srs4.1", "foo", "paxos", "raid5", "rep3,srs3.2",
	} {
		if sc, err := ParseScheme(bad, 3); err == nil {
			t.Errorf("%q accepted as %v", bad, sc)
		}
	}
}

// TestVarintBounds: a padded varint decodes to its value and
// re-encodes minimal; a value past its field's type, or a varint that
// overflows 64 bits, is malformed.
func TestVarintBounds(t *testing.T) {
	m, err := Decode([]byte{byte(TRepCommit), 1, 0, 0x87, 0x80, 0x00})
	if err != nil || *m.(*RepCommit) != (RepCommit{Memgest: 1, Seq: 7}) {
		t.Fatalf("padded Seq: %v, %v", m, err)
	}
	if enc, want := Encode(m), []byte{byte(TRepCommit), 1, 0, 7}; !bytes.Equal(enc, want) {
		t.Fatalf("re-encoded as %x, want %x", enc, want)
	}
	for name, pkt := range map[string][]byte{
		"u32 holding 2^32":   {byte(TRepCommit), 0x80, 0x80, 0x80, 0x80, 0x10, 0, 7},
		"u16 holding 2^16":   {byte(TReconfig), 1, byte(ReconfigCreate), 0, 0, byte(SchemeSRS), 0x80, 0x80, 0x04, 0, 0, 0},
		"eleven-byte varint": {byte(TRepCommit), 1, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		if _, err := Decode(pkt); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}
}

func TestSchemeValidate(t *testing.T) {
	valid := []Scheme{Rep(1, 3), Rep(5, 3), SRS(2, 1, 3), SRS(3, 2, 3), SRS(2, 2, 4)}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%v should be valid: %v", s, err)
		}
	}
	invalid := []Scheme{{}, Rep(0, 3), Rep(3, 0), SRS(0, 1, 3), SRS(3, 0, 3), SRS(4, 1, 3), {Kind: 9, S: 3}}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%v should be invalid", s)
		}
	}
}

func TestSchemeProperties(t *testing.T) {
	if got := SRS(3, 2, 3).RedundantNodes(); got != 2 {
		t.Errorf("SRS(3,2,3) redundant = %d", got)
	}
	if got := Rep(4, 3).RedundantNodes(); got != 3 {
		t.Errorf("Rep(4,3) redundant = %d", got)
	}
	if got := SRS(3, 2, 3).Tolerates(); got != 2 {
		t.Errorf("SRS(3,2,3) tolerates = %d", got)
	}
	if got := Rep(3, 3).Tolerates(); got != 1 {
		t.Errorf("Rep(3,3) tolerates = %d (quorum: floor((r-1)/2))", got)
	}
	if got := Rep(1, 3).Tolerates(); got != 0 {
		t.Errorf("Rep(1,3) tolerates = %d", got)
	}
	if o := SRS(3, 2, 3).StorageOverhead(); o < 1.66 || o > 1.67 {
		t.Errorf("SRS(3,2) overhead = %v", o)
	}
	if o := Rep(3, 3).StorageOverhead(); o != 3 {
		t.Errorf("Rep(3) overhead = %v", o)
	}
	if SRS(3, 2, 3).Label() != "SRS32" || Rep(1, 3).Label() != "REP1" {
		t.Error("labels wrong")
	}
	if SRS(3, 2, 3).String() != "SRS(3,2,3)" || Rep(2, 3).String() != "Rep(2,3)" {
		t.Error("String wrong")
	}
}

func TestConfigHelpers(t *testing.T) {
	c := sampleConfig()
	if c.Shards() != 3 {
		t.Fatalf("Shards = %d", c.Shards())
	}
	if c.ShardOf(10) != 1 || c.CoordinatorOf(10) != 1 {
		t.Fatalf("ShardOf/CoordinatorOf wrong")
	}
	if c.Memgest(2) == nil || c.Memgest(2).Scheme.R != 3 {
		t.Fatal("Memgest lookup failed")
	}
	if c.Memgest(99) != nil {
		t.Fatal("Memgest(99) should be nil")
	}
	all := c.AllNodes()
	if len(all) != 6 {
		t.Fatalf("AllNodes = %v", all)
	}
	cl := c.Clone()
	cl.Coords[0] = 99
	cl.Memgests[0].Redundant[0] = 99
	if c.Coords[0] == 99 || c.Memgests[0].Redundant[0] == 99 {
		t.Fatal("Clone is shallow")
	}
}

func TestStatusStringsAndErr(t *testing.T) {
	if StOK.Err() != nil {
		t.Fatal("StOK.Err must be nil")
	}
	for _, s := range []Status{StNotFound, StNoMemgest, StWrongNode, StRetry, StInvalid, StUnavailable, Status(99)} {
		if s.Err() == nil {
			t.Fatalf("%v.Err must be non-nil", s)
		}
		if s.String() == "" {
			t.Fatalf("%v has empty String", s)
		}
	}
}

func BenchmarkEncodePut1KiB(b *testing.B) {
	m := &Put{Req: 1, Key: "12345678", Value: make([]byte, 1024), Memgest: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkDecodePut1KiB(b *testing.B) {
	buf := Encode(&Put{Req: 1, Key: "12345678", Value: make([]byte, 1024), Memgest: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeMutationFuzz flips random bytes in valid encodings; Decode
// must never panic and must either fail or return a message.
func TestDecodeMutationFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	corpus := [][]byte{
		Encode(&Put{Req: 1, Key: "12345678", Value: make([]byte, 64), Memgest: 3}),
		Encode(&ResolveReply{Req: 2, Config: sampleConfig()}),
		Encode(&MetaFetchReply{Req: 3, Status: StOK, Recs: []MetaRecord{{Key: "k", Version: 1}}}),
		Encode(&ParityUpdate{Memgest: 1, Seq: 9, Rec: MetaRecord{Key: "x"}, Delta: make([]byte, 32)}),
	}
	for trial := 0; trial < 5000; trial++ {
		base := corpus[rng.Intn(len(corpus))]
		buf := append([]byte(nil), base...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on mutated input: %v", r)
				}
			}()
			_, _ = Decode(buf)
		}()
	}
}
