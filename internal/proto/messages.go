package proto

import (
	"fmt"
	"strings"
	"sync"
)

// MsgType tags the envelope of every wire message.
type MsgType uint8

const (
	// Client operations.
	TPut MsgType = iota + 1
	TPutReply
	TGet
	TGetReply
	TDelete
	TMove
	TResolve
	TResolveReply
	// Replication and parity propagation.
	TRepAppend
	TRepAck
	TRepCommit
	TParityUpdate
	TParityAck
	TPurge
	// Membership.
	THeartbeat
	THeartbeatAck
	TConfigPush
	TConfigAck
	// Recovery.
	TMetaFetch
	TMetaFetchReply
	TFetch
	TFetchReply
	// Membership: a restarted node announcing itself to the leader.
	TJoin
	// Control plane: every change an operator asks of the leader.
	TReconfig
	TReconfigReply
	// tEnd is one past the last message tag; a new tag goes above it
	// and gets its row in wire.
	tEnd
)

// wire is the wire protocol's one table: for every tag the message
// type that carries it, and whether that message is an
// acknowledgement. A tag listed twice does not compile, and neither
// does a type without Type, encode or decode; TestWireTable fails on a
// tag without a row, a row whose message answers Type() with another
// tag, and a tag two types claim. Decode and IsAck are read off it, and
// free marks the types a node recycles (see Release): the ones every
// client operation decodes or sends, and the heartbeats of every tick.
var wire = [tEnd]struct {
	make func() Message
	ack  bool
	free bool
}{
	TPut:            {make: func() Message { return new(Put) }, free: true},
	TPutReply:       {make: func() Message { return new(PutReply) }, ack: true, free: true},
	TGet:            {make: func() Message { return new(Get) }, free: true},
	TGetReply:       {make: func() Message { return new(GetReply) }, ack: true, free: true},
	TDelete:         {make: func() Message { return new(Delete) }, free: true},
	TMove:           {make: func() Message { return new(Move) }, free: true},
	TResolve:        {make: func() Message { return new(Resolve) }},
	TResolveReply:   {make: func() Message { return new(ResolveReply) }, ack: true},
	TRepAppend:      {make: func() Message { return new(RepAppend) }, free: true},
	TRepAck:         {make: func() Message { return new(RepAck) }, ack: true, free: true},
	TRepCommit:      {make: func() Message { return new(RepCommit) }, free: true},
	TParityUpdate:   {make: func() Message { return new(ParityUpdate) }, free: true},
	TParityAck:      {make: func() Message { return new(ParityAck) }, ack: true, free: true},
	TPurge:          {make: func() Message { return new(Purge) }, free: true},
	THeartbeat:      {make: func() Message { return new(Heartbeat) }, free: true},
	THeartbeatAck:   {make: func() Message { return new(HeartbeatAck) }, ack: true, free: true},
	TConfigPush:     {make: func() Message { return new(ConfigPush) }},
	TConfigAck:      {make: func() Message { return new(ConfigAck) }, ack: true},
	TMetaFetch:      {make: func() Message { return new(MetaFetch) }},
	TMetaFetchReply: {make: func() Message { return new(MetaFetchReply) }, ack: true},
	TFetch:          {make: func() Message { return new(Fetch) }},
	TFetchReply:     {make: func() Message { return new(FetchReply) }, ack: true},
	TJoin:           {make: func() Message { return new(Join) }},
	TReconfig:       {make: func() Message { return new(Reconfig) }},
	TReconfigReply:  {make: func() Message { return new(ReconfigReply) }, ack: true},
}

// IsAck reports whether t is an acknowledgement: a message that tells
// its receiver something happened at the sender — every *Reply and
// *Ack type. It is what core.Node counts as acksOwed: a durable node
// fsyncs before a batch holding one leaves; requests, fan-out and
// commit notices promise nothing and do not wait.
func (t MsgType) IsAck() bool { return t < tEnd && wire[t].ack }

// Status is the result code carried by replies.
type Status uint8

const (
	StOK Status = iota
	StNotFound
	StNoMemgest
	StWrongNode // request reached a node that does not own the shard
	StRetry     // transient: resend after re-resolving the config
	StInvalid   // malformed or rejected request
	StUnavailable
)

func (s Status) String() string {
	switch s {
	case StOK:
		return "OK"
	case StNotFound:
		return "not found"
	case StNoMemgest:
		return "no such memgest"
	case StWrongNode:
		return "wrong node"
	case StRetry:
		return "retry"
	case StInvalid:
		return "invalid"
	case StUnavailable:
		return "unavailable"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Err converts a non-OK status into an error (nil for StOK).
func (s Status) Err() error {
	if s == StOK {
		return nil
	}
	return fmt.Errorf("ring: %s", s)
}

// Transient reports whether s tells the client its view of the cluster
// is stale or the cluster is mid-change: re-resolve the configuration
// and send the request again (Section 5.5). Every other status is the
// request's answer.
func (s Status) Transient() bool {
	return s == StWrongNode || s == StRetry || s == StUnavailable
}

// Message is implemented by every wire message.
type Message interface {
	Type() MsgType
	encode(w *writer)
	// decode fills the message from r and reports whether r held exactly
	// one. The reader comes by value: behind a pointer it would have to
	// live on the heap, the callee being unknown to Decode.
	decode(r reader) error
}

// Reply is implemented by the four replies a client receives: the
// request the reply answers and how that request ended. It is all a
// client needs to correlate a reply and decide whether to retry, so
// client code never switches over the concrete reply types.
type Reply interface {
	Message
	Request() ReqID
	Result() Status
}

func (m *PutReply) Request() ReqID      { return m.Req }
func (m *PutReply) Result() Status      { return m.Status }
func (m *GetReply) Request() ReqID      { return m.Req }
func (m *GetReply) Result() Status      { return m.Status }
func (m *ReconfigReply) Request() ReqID { return m.Req }
func (m *ReconfigReply) Result() Status { return m.Status }
func (m *ResolveReply) Request() ReqID  { return m.Req }

// Result is StOK: a node that answers Resolve at all answers with its
// configuration.
func (m *ResolveReply) Result() Status { return StOK }

// Encode serializes a message with its envelope type byte. It is a
// convenience shim over AppendEncode that allocates a fresh buffer.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, 64), m)
}

// writerPool recycles writer headers: encode is an interface method,
// so a stack writer would escape and cost one allocation per message.
var writerPool = sync.Pool{New: func() any { return new(writer) }}

// AppendEncode serializes a message with its envelope type byte,
// appending to buf (which may be nil) and returning the extended
// slice. It is the allocation-free hot path: callers that reuse a
// buffer with sufficient capacity pay zero allocations per message.
func AppendEncode(buf []byte, m Message) []byte {
	w := writerPool.Get().(*writer)
	w.b = append(buf, uint8(m.Type()))
	m.encode(w)
	buf = w.b
	w.b = nil
	writerPool.Put(w)
	return buf
}

// Decode parses an envelope produced by Encode into a message taken
// from its type's free list. The []byte fields of the returned message
// alias buf (see the package doc).
func Decode(buf []byte) (Message, error) {
	if len(buf) < 1 {
		return nil, ErrTruncated
	}
	t := MsgType(buf[0])
	if t >= tEnd || wire[t].make == nil {
		return nil, errUnknownType(buf[0])
	}
	m := alloc(t)
	if err := m.decode(reader{b: buf[1:]}); err != nil {
		Release(m)
		return nil, err
	}
	return m, nil
}

// errUnknownType builds the unknown-tag error. It is a function of its
// own so the fmt machinery never rides the decode fast path:
// the wrapped error is only constructed once a packet is already
// malformed.
func errUnknownType(tag uint8) error {
	return fmt.Errorf("%w: %d", ErrUnknownType, tag)
}

// ---------------------------------------------------------------- client ops

// MaxKey and MaxValue bound a put: a node refuses a longer key or value
// with StInvalid. MaxKey is what a durable record's 16-bit key length
// holds, and the largest key and value with a record's header fit one
// write-ahead log record (under 16 MiB).
const (
	MaxKey   = 1<<16 - 1
	MaxValue = 16<<20 - 1<<17
)

// Put writes a value under key into the given memgest (0 = cluster
// default).
type Put struct {
	Req     ReqID
	Key     string
	Value   []byte
	Memgest MemgestID
}

func (*Put) Type() MsgType { return TPut }
func (m *Put) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.str(m.Key)
	w.bytes(m.Value)
	w.u32(uint32(m.Memgest))
}
func (m *Put) decode(r reader) error {
	// Field by field, on the benchmarked type: a composite literal is
	// built aside and copied in through the write barrier.
	m.Req, m.Key, m.Value, m.Memgest = ReqID(r.u64()), r.str(), r.bytes(), MemgestID(r.u32())
	return r.done()
}

// PutReply answers every write: a Put, a Delete and a Move. Version
// is the version the write committed — the value's, the tombstone's, or
// the one the key now holds in the destination memgest; Moved counts
// the keys a bulk move moved (its Version is 0).
type PutReply struct {
	Req     ReqID
	Status  Status
	Version Version
	Moved   uint32
}

func (*PutReply) Type() MsgType { return TPutReply }
func (m *PutReply) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.u8(uint8(m.Status))
	w.u64(uint64(m.Version))
	// Only a bulk move's reply carries the count (see Move.encode).
	if m.Moved != 0 {
		w.u32(m.Moved)
	}
}
func (m *PutReply) decode(r reader) error {
	*m = PutReply{Req: ReqID(r.u64()), Status: Status(r.u8()), Version: Version(r.u64())}
	if len(r.b) > 0 {
		m.Moved = r.u32()
	}
	return r.done()
}

// Get reads a version of key: Version 0 selects the highest version
// (parking the reply until it commits); a nonzero Version reads that
// exact version if it is still retained (see Options.KeepVersions),
// which is how the heavy-updates use case reads back the preserved
// reliable copy of a key.
type Get struct {
	Req     ReqID
	Key     string
	Version Version
}

func (*Get) Type() MsgType { return TGet }
func (m *Get) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.str(m.Key)
	w.u64(uint64(m.Version))
}
func (m *Get) decode(r reader) error {
	*m = Get{Req: ReqID(r.u64()), Key: r.view(), Version: Version(r.u64())}
	return r.done()
}

// GetReply returns the value (or NotFound).
type GetReply struct {
	Req     ReqID
	Status  Status
	Version Version
	Value   []byte
}

func (*GetReply) Type() MsgType { return TGetReply }
func (m *GetReply) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.u8(uint8(m.Status))
	w.u64(uint64(m.Version))
	w.bytes(m.Value)
}
func (m *GetReply) decode(r reader) error {
	*m = GetReply{Req: ReqID(r.u64()), Status: Status(r.u8()), Version: Version(r.u64()), Value: r.bytes()}
	return r.done()
}

// Delete removes key (a committed tombstone version).
type Delete struct {
	Req ReqID
	Key string
}

func (*Delete) Type() MsgType { return TDelete }
func (m *Delete) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.str(m.Key)
}
func (m *Delete) decode(r reader) error {
	*m = Delete{Req: ReqID(r.u64()), Key: r.str()}
	return r.done()
}

// Move asks a key's coordinator to re-home its newest committed version
// into another memgest — the paper's move (Section 4, Figure 8). No
// value crosses the network: SRS co-location keeps it local to the
// coordinator, which re-puts it under the next version inside a
// window (writes to the key park until the new version commits). With Prefix set, Key is a prefix and the receiving
// coordinator moves every matching key it owns, answering with the
// count.
type Move struct {
	Req ReqID
	Key string
	// Memgest is the destination memgest.
	Memgest MemgestID
	// From restricts the move to keys currently in this memgest
	// (0 = unconditional).
	From MemgestID
	// Prefix treats Key as a prefix (bulk move).
	Prefix bool
}

func (*Move) Type() MsgType { return TMove }
func (m *Move) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.str(m.Key)
	w.u32(uint32(m.Memgest))
	// A plain move omits the conditional/bulk tail: the paper's move
	// keeps its size on the wire (Figure 8 latencies are byte-exact).
	if m.From != 0 || m.Prefix {
		w.u32(uint32(m.From))
		w.bool(m.Prefix)
	}
}
func (m *Move) decode(r reader) error {
	*m = Move{Req: ReqID(r.u64()), Key: r.str(), Memgest: MemgestID(r.u32())}
	if len(r.b) > 0 {
		m.From, m.Prefix = MemgestID(r.u32()), r.bool()
	}
	return r.done()
}

// Resolve asks any node for the current cluster configuration.
type Resolve struct {
	Req ReqID
}

func (*Resolve) Type() MsgType      { return TResolve }
func (m *Resolve) encode(w *writer) { w.u64(uint64(m.Req)) }
func (m *Resolve) decode(r reader) error {
	*m = Resolve{Req: ReqID(r.u64())}
	return r.done()
}

// ResolveReply carries the node's current configuration.
type ResolveReply struct {
	Req    ReqID
	Config *Config
}

func (*ResolveReply) Type() MsgType { return TResolveReply }
func (m *ResolveReply) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.config(m.Config)
}
func (m *ResolveReply) decode(r reader) error {
	*m = ResolveReply{Req: ReqID(r.u64()), Config: r.config()}
	return r.done()
}

// ------------------------------------------------------------- replication

// RepAppend replicates one log entry (metadata + value) of a
// replicated memgest from the coordinator to a replica. Its record
// travels as a key, a version and a flags byte: the rest of it is what
// the message already says (the memgest, and the length of Value), or
// zero (a Rep value has no block location), and Decode rebuilds it.
type RepAppend struct {
	Memgest MemgestID
	Shard   uint32
	Seq     Seq
	Rec     MetaRecord
	Value   []byte
}

func (*RepAppend) Type() MsgType { return TRepAppend }
func (m *RepAppend) encode(w *writer) {
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.u64(uint64(m.Seq))
	w.shortRecord(&m.Rec)
	w.bytes(m.Value)
}
func (m *RepAppend) decode(r reader) error {
	*m = RepAppend{Memgest: MemgestID(r.u32()), Shard: r.u32(), Seq: Seq(r.u64()), Rec: r.shortRecord()}
	m.Value = r.bytes()
	m.Rec.Memgest, m.Rec.Length = m.Memgest, uint32(len(m.Value))
	return r.done()
}

// RepAck acknowledges replication of the log entries Seq to Seq+More
// of one memgest shard: one entry, unless the packer folded the acks of
// consecutive entries into one (see RepCommit).
type RepAck struct {
	Memgest MemgestID
	Shard   uint32
	Seq     Seq
	More    uint32
}

func (*RepAck) Type() MsgType { return TRepAck }
func (m *RepAck) encode(w *writer) {
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.u64(uint64(m.Seq))
	if m.More != 0 {
		w.u32(m.More + 1)
	}
}
func (m *RepAck) decode(r reader) error {
	*m = RepAck{Memgest: MemgestID(r.u32()), Shard: r.u32(), Seq: Seq(r.u64())}
	if len(r.b) > 0 {
		m.More = r.more(m.Seq)
	}
	return r.done()
}

// RepCommit advances the commit index on replicas and parity nodes so
// they can flip committed flags (and lagging Rep replicas apply): it
// names the entries Seq to Seq+More, then carries the purges of
// superseded versions in the same memgest shard that followed those
// commits to this node, as Purge messages would (AppendPurge). Its
// receiver commits every entry, then applies every purge, in order.
//
// One commit of one entry is [tag][memgest][shard][seq]. A run or
// purges add a tail: the count of entries, then each purge as
// [key length][key][version] up to the message's end.
type RepCommit struct {
	Memgest MemgestID
	Shard   uint32
	Seq     Seq
	More    uint32
	// Purges is the encoded (key, version) pairs; on a decoded message
	// a view into its packet, like Purge.Key.
	Purges []byte
}

func (*RepCommit) Type() MsgType { return TRepCommit }
func (m *RepCommit) encode(w *writer) {
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.u64(uint64(m.Seq))
	if m.More != 0 || len(m.Purges) > 0 {
		w.u32(m.More + 1)
		w.b = append(w.b, m.Purges...)
	}
}
func (m *RepCommit) decode(r reader) error {
	*m = RepCommit{Memgest: MemgestID(r.u32()), Shard: r.u32(), Seq: Seq(r.u64())}
	if len(r.b) > 0 {
		m.More = r.more(m.Seq)
		if len(r.b) > 0 && r.err == nil {
			all := r.b
			for len(r.b) > 0 && r.err == nil {
				r.key()
				r.u64()
			}
			m.Purges = all[: len(all)-len(r.b) : len(all)-len(r.b)]
		}
	}
	return r.done()
}

// AppendPurge appends the encoding of one carried purge of key's
// version v to a RepCommit's Purges.
func AppendPurge(purges []byte, key string, v Version) []byte {
	w := writer{b: purges}
	w.str(key)
	w.u64(uint64(v))
	return w.b
}

// EachPurge calls fn with the key and version of every purge m carries,
// in order. A key is a view into what Purges views.
func (m *RepCommit) EachPurge(fn func(key string, v Version)) {
	r := reader{b: m.Purges}
	for len(r.b) > 0 && r.err == nil {
		key := r.key()
		fn(key, Version(r.u64()))
	}
}

// ParityUpdate carries the coefficient-multiplied delta produced by a
// coordinator to one parity node of an SRS memgest, together with the
// metadata record so the parity node can maintain its replica of the
// metadata hashtable. Block is the coordinator's logical block, Off the
// byte offset within it; the parity node reads the stripe offset off
// its layout. The record travels as RepAppend's does, its location
// being Block and Off and its length that of Delta.
type ParityUpdate struct {
	Memgest MemgestID
	Shard   uint32
	Seq     Seq
	Rec     MetaRecord
	Block   uint32
	Off     uint32
	Delta   []byte
}

func (*ParityUpdate) Type() MsgType { return TParityUpdate }
func (m *ParityUpdate) encode(w *writer) {
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.u64(uint64(m.Seq))
	w.shortRecord(&m.Rec)
	w.u32(m.Block)
	w.u32(m.Off)
	w.bytes(m.Delta)
}
func (m *ParityUpdate) decode(r reader) error {
	*m = ParityUpdate{
		Memgest: MemgestID(r.u32()), Shard: r.u32(), Seq: Seq(r.u64()),
		Rec: r.shortRecord(), Block: r.u32(), Off: r.u32(),
	}
	m.Delta = r.bytes()
	m.Rec.Memgest, m.Rec.Length = m.Memgest, uint32(len(m.Delta))
	m.Rec.LocBlock, m.Rec.LocOff = m.Block, m.Off
	return r.done()
}

// ParityAck acknowledges application of the parity updates Seq to
// Seq+More, as RepAck does replication.
type ParityAck struct {
	Memgest MemgestID
	Shard   uint32
	Seq     Seq
	More    uint32
}

func (*ParityAck) Type() MsgType { return TParityAck }
func (m *ParityAck) encode(w *writer) {
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.u64(uint64(m.Seq))
	if m.More != 0 {
		w.u32(m.More + 1)
	}
}
func (m *ParityAck) decode(r reader) error {
	*m = ParityAck{Memgest: MemgestID(r.u32()), Shard: r.u32(), Seq: Seq(r.u64())}
	if len(r.b) > 0 {
		m.More = r.more(m.Seq)
	}
	return r.done()
}

// Purge garbage-collects an old version of a key on redundancy nodes
// after a newer version committed. The packer folds one into the
// RepCommit of its memgest shard before it (RepCommit.Purges).
type Purge struct {
	Memgest MemgestID
	Shard   uint32
	Key     string
	Version Version
}

func (*Purge) Type() MsgType { return TPurge }
func (m *Purge) encode(w *writer) {
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.str(m.Key)
	w.u64(uint64(m.Version))
}
func (m *Purge) decode(r reader) error {
	*m = Purge{Memgest: MemgestID(r.u32()), Shard: r.u32(), Key: r.view(), Version: Version(r.u64())}
	return r.done()
}

// ------------------------------------------------------------- membership

// Heartbeat is sent by the leader to every node.
type Heartbeat struct {
	Epoch Epoch
}

func (*Heartbeat) Type() MsgType      { return THeartbeat }
func (m *Heartbeat) encode(w *writer) { w.u64(uint64(m.Epoch)) }
func (m *Heartbeat) decode(r reader) error {
	*m = Heartbeat{Epoch: Epoch(r.u64())}
	return r.done()
}

// HeartbeatAck confirms liveness to the leader. Epoch is the
// configuration the sender has installed, not an echo of the
// heartbeat's: one below the leader's tells it a ConfigPush was lost.
type HeartbeatAck struct {
	Epoch Epoch
}

func (*HeartbeatAck) Type() MsgType      { return THeartbeatAck }
func (m *HeartbeatAck) encode(w *writer) { w.u64(uint64(m.Epoch)) }
func (m *HeartbeatAck) decode(r reader) error {
	*m = HeartbeatAck{Epoch: Epoch(r.u64())}
	return r.done()
}

// ConfigPush replicates a new configuration (role assignment entry of
// the membership log).
type ConfigPush struct {
	Config *Config
}

func (*ConfigPush) Type() MsgType      { return TConfigPush }
func (m *ConfigPush) encode(w *writer) { w.config(m.Config) }
func (m *ConfigPush) decode(r reader) error {
	*m = ConfigPush{Config: r.config()}
	return r.done()
}

// Join is sent by a node that (re)started with empty state and wants
// back into the cluster. The leader strips any data roles the node
// still holds in the current configuration (its memory is gone — the
// roles must be recovered by someone else or re-recovered by the
// joiner) and re-admits it as a spare. Non-leaders answer with a
// ConfigPush of their current configuration so the joiner can locate
// the real leader.
type Join struct {
	// Node is the joiner's identity (also derivable from the sender
	// address, but carried explicitly so the message is self-contained).
	Node NodeID
	// Epoch is the configuration epoch the joiner booted with, for
	// observability; the leader's decision does not depend on it.
	Epoch Epoch
	// Durable is set when the joiner recovered committed state from its
	// data directory: the leader then re-admits it into the roles it
	// held (letting it delta-sync from the group) instead of stripping
	// it down to an empty spare.
	Durable bool
}

func (*Join) Type() MsgType { return TJoin }
func (m *Join) encode(w *writer) {
	w.u32(uint32(m.Node))
	w.u64(uint64(m.Epoch))
	w.bool(m.Durable)
}
func (m *Join) decode(r reader) error {
	*m = Join{Node: NodeID(r.u32()), Epoch: Epoch(r.u64()), Durable: r.bool()}
	return r.done()
}

// ConfigAck confirms installation of a configuration epoch.
type ConfigAck struct {
	Epoch Epoch
}

func (*ConfigAck) Type() MsgType      { return TConfigAck }
func (m *ConfigAck) encode(w *writer) { w.u64(uint64(m.Epoch)) }
func (m *ConfigAck) decode(r reader) error {
	*m = ConfigAck{Epoch: Epoch(r.u64())}
	return r.done()
}

// --------------------------------------------------------------- recovery

// MetaFetch asks a node for its metadata hashtable of one memgest
// shard (step 5 of the recovery sequence).
type MetaFetch struct {
	Req     ReqID
	Memgest MemgestID
	Shard   uint32
	// Since is the delta floor: a requester that recovered durable
	// state up to sequence Since only needs records past it. Zero asks
	// for the full table (the only value non-durable nodes send).
	Since Seq
}

func (*MetaFetch) Type() MsgType { return TMetaFetch }
func (m *MetaFetch) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.u64(uint64(m.Since))
}
func (m *MetaFetch) decode(r reader) error {
	*m = MetaFetch{Req: ReqID(r.u64()), Memgest: MemgestID(r.u32()), Shard: r.u32(), Since: Seq(r.u64())}
	return r.done()
}

// MetaFetchReply returns the metadata records and the log position up
// to which they are complete.
type MetaFetchReply struct {
	Req     ReqID
	Status  Status
	Memgest MemgestID
	Shard   uint32
	Seq     Seq
	Recs    []MetaRecord
}

func (*MetaFetchReply) Type() MsgType { return TMetaFetchReply }
func (m *MetaFetchReply) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.u8(uint8(m.Status))
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.u64(uint64(m.Seq))
	w.u32(uint32(len(m.Recs)))
	for i := range m.Recs {
		w.metaRecord(&m.Recs[i])
	}
}
func (m *MetaFetchReply) decode(r reader) error {
	*m = MetaFetchReply{Req: ReqID(r.u64()), Status: Status(r.u8()), Memgest: MemgestID(r.u32()), Shard: r.u32(), Seq: Seq(r.u64())}
	n := int(r.u32())
	if r.err != nil || n > len(r.b) {
		r.fail()
		return r.err
	}
	m.Recs = make([]MetaRecord, n)
	for i := range m.Recs {
		// Recovery keeps these records past the packet: their keys are
		// copies.
		m.Recs[i] = r.metaRecord()
		m.Recs[i].Key = strings.Clone(m.Recs[i].Key)
	}
	return r.done()
}

// Fetch asks a node for the bytes at one place of a memgest: in a
// replicated memgest the value of (Key, Version) of a shard, from any
// node holding a copy; in an SRS memgest the logical block Block. The
// coordinator of the block's shard reads it; a parity node decodes it
// from the rest of its stripe (the on-the-fly recovery of Section
// 5.5). Either way the answer is what the place holds, or a refusal.
type Fetch struct {
	Req     ReqID
	Memgest MemgestID
	Shard   uint32
	Key     string
	Version Version
	Block   uint32
}

func (*Fetch) Type() MsgType { return TFetch }
func (m *Fetch) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.u32(uint32(m.Memgest))
	w.u32(m.Shard)
	w.str(m.Key)
	w.u64(uint64(m.Version))
	w.u32(m.Block)
}
func (m *Fetch) decode(r reader) error {
	*m = Fetch{Req: ReqID(r.u64()), Memgest: MemgestID(r.u32()), Shard: r.u32(), Key: r.str(), Version: Version(r.u64()), Block: r.u32()}
	return r.done()
}

// FetchReply returns the bytes a Fetch asked for.
type FetchReply struct {
	Req    ReqID
	Status Status
	Data   []byte
}

func (*FetchReply) Type() MsgType { return TFetchReply }
func (m *FetchReply) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.u8(uint8(m.Status))
	w.bytes(m.Data)
}
func (m *FetchReply) decode(r reader) error {
	*m = FetchReply{Req: ReqID(r.u64()), Status: Status(r.u8()), Data: r.bytes()}
	return r.done()
}

// ----------------------------------------------------------- control plane

// ReconfigOp selects the change a Reconfig asks of the leader.
type ReconfigOp uint8

const (
	// ReconfigJoin admits Node into the cluster as a spare.
	ReconfigJoin ReconfigOp = iota + 1
	// ReconfigLeave removes Node: the leader computes the minimal role
	// reassignment, fences the departing node with the new configuration
	// first (so it stops serving before anyone else moves), and only
	// then announces cluster-wide.
	ReconfigLeave
	// ReconfigCreate instantiates a memgest of Scheme; the reply carries
	// the ID it was given.
	ReconfigCreate
	// ReconfigDelete removes memgest Memgest.
	ReconfigDelete
	// ReconfigSetDefault makes Memgest the memgest of puts that name
	// none.
	ReconfigSetDefault
)

// Reconfig asks the leader for one configuration change, the membership
// log entry of Section 5.5: a node joins or leaves, or a memgest is
// created, deleted or made the default. Node, Memgest and Scheme are
// the arguments of the ops that read them.
type Reconfig struct {
	Req     ReqID
	Op      ReconfigOp
	Node    NodeID
	Memgest MemgestID
	Scheme  Scheme
}

func (*Reconfig) Type() MsgType { return TReconfig }
func (m *Reconfig) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.u8(uint8(m.Op))
	w.u32(uint32(m.Node))
	// A join or leave omits the memgest tail (see Move.encode).
	if m.Memgest != 0 || m.Scheme != (Scheme{}) {
		w.u32(uint32(m.Memgest))
		w.scheme(m.Scheme)
	}
}
func (m *Reconfig) decode(r reader) error {
	*m = Reconfig{Req: ReqID(r.u64()), Op: ReconfigOp(r.u8()), Node: NodeID(r.u32())}
	if len(r.b) > 0 {
		m.Memgest, m.Scheme = MemgestID(r.u32()), r.scheme()
	}
	return r.done()
}

// ReconfigReply answers a Reconfig. Epoch is the configuration the
// change installed (the current one when it changed nothing). Moved
// counts the role slots whose assignment actually changed — the
// minimal-movement metric: a leave that substitutes one spare moves
// only that node's slots, never the whole keyspace. Memgest is the ID
// a create gave its memgest.
type ReconfigReply struct {
	Req     ReqID
	Status  Status
	Moved   uint32
	Epoch   Epoch
	Memgest MemgestID
}

func (*ReconfigReply) Type() MsgType { return TReconfigReply }
func (m *ReconfigReply) encode(w *writer) {
	w.u64(uint64(m.Req))
	w.u8(uint8(m.Status))
	w.u32(m.Moved)
	w.u64(uint64(m.Epoch))
	// Only a create's reply carries an ID (see Move.encode).
	if m.Memgest != 0 {
		w.u32(uint32(m.Memgest))
	}
}
func (m *ReconfigReply) decode(r reader) error {
	*m = ReconfigReply{Req: ReqID(r.u64()), Status: Status(r.u8()), Moved: r.u32(), Epoch: Epoch(r.u64())}
	if len(r.b) > 0 {
		m.Memgest = MemgestID(r.u32())
	}
	return r.done()
}
