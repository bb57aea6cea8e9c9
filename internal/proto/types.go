package proto

import (
	"fmt"
	"strconv"
	"strings"
)

// NodeID identifies a server in the cluster. IDs are assigned at
// deployment time and stable for the life of the process.
type NodeID uint32

// NilNode is the zero NodeID used to mean "no node".
const NilNode NodeID = 0xffffffff

// MemgestID identifies a memgest (storage scheme instance) within the
// cluster. ID 0 is reserved as "unset"/default marker at the API level.
type MemgestID uint32

// Epoch numbers cluster configurations; higher epochs supersede lower.
type Epoch uint64

// Seq numbers entries in a memgest's replicated log.
type Seq uint64

// Version numbers versions of a key; higher versions supersede lower
// across all memgests (Section 5.2).
type Version uint64

// ReqID correlates client requests with replies.
type ReqID uint64

// SchemeKind discriminates replication from erasure coding.
type SchemeKind uint8

const (
	// SchemeRep is replication Rep(r,s): s shards, r copies of each.
	// r=1 is the unreliable memgest.
	SchemeRep SchemeKind = iota + 1
	// SchemeSRS is Stretched Reed-Solomon SRS(k,m,s).
	SchemeSRS
)

// Scheme describes a storage scheme (the memgest descriptor of the
// createMemgest API).
type Scheme struct {
	Kind SchemeKind
	// K and M are the RS parameters (SRS only).
	K, M int
	// R is the replication factor (Rep only).
	R int
	// S is the number of key shards / data nodes, shared by every
	// scheme in one memgest group.
	S int
}

// Rep constructs a Rep(r,s) scheme descriptor.
func Rep(r, s int) Scheme { return Scheme{Kind: SchemeRep, R: r, S: s} }

// SRS constructs an SRS(k,m,s) scheme descriptor.
func SRS(k, m, s int) Scheme { return Scheme{Kind: SchemeSRS, K: k, M: m, S: s} }

// ParseScheme parses an operator's scheme token, repR or srsK.M in any
// case and with surrounding spaces, into the scheme of that name over s
// shards, and validates it.
func ParseScheme(tok string, s int) (Scheme, error) {
	tok = strings.ToLower(strings.TrimSpace(tok))
	var sc Scheme
	var err1, err2 error
	switch k, m, dotted := strings.Cut(strings.TrimPrefix(tok, "srs"), "."); {
	case strings.HasPrefix(tok, "rep"):
		sc.Kind = SchemeRep
		sc.R, err1 = strconv.Atoi(tok[3:])
	case strings.HasPrefix(tok, "srs") && dotted:
		sc.Kind = SchemeSRS
		sc.K, err1 = strconv.Atoi(k)
		sc.M, err2 = strconv.Atoi(m)
	default:
		err1 = strconv.ErrSyntax
	}
	if err1 != nil || err2 != nil {
		return Scheme{}, fmt.Errorf("proto: bad scheme %q (want repR or srsK.M)", tok)
	}
	sc.S = s
	if err := sc.Validate(); err != nil {
		return Scheme{}, err
	}
	return sc, nil
}

// Validate checks the descriptor parameters.
func (s Scheme) Validate() error {
	if s.S < 1 {
		return fmt.Errorf("proto: scheme needs s >= 1, got %d", s.S)
	}
	switch s.Kind {
	case SchemeRep:
		if s.R < 1 {
			return fmt.Errorf("proto: Rep needs r >= 1, got %d", s.R)
		}
	case SchemeSRS:
		if s.K < 1 || s.M < 1 {
			return fmt.Errorf("proto: SRS needs k >= 1 and m >= 1, got k=%d m=%d", s.K, s.M)
		}
		if s.S < s.K {
			return fmt.Errorf("proto: SRS needs s >= k, got s=%d k=%d", s.S, s.K)
		}
	default:
		return fmt.Errorf("proto: unknown scheme kind %d", s.Kind)
	}
	return nil
}

// RedundantNodes returns how many nodes beyond the s coordinators the
// scheme occupies: m parity nodes for SRS, r-1 extra replicas for Rep.
func (s Scheme) RedundantNodes() int {
	if s.Kind == SchemeSRS {
		return s.M
	}
	return s.R - 1
}

// Tolerates returns the number of simultaneous node failures the
// scheme is guaranteed to tolerate: m for SRS and, per Section 3.1,
// floor((r-1)/2) for quorum-replicated Rep(r,s).
func (s Scheme) Tolerates() int {
	if s.Kind == SchemeSRS {
		return s.M
	}
	return (s.R - 1) / 2
}

// StorageOverhead returns the memory cost multiplier of the scheme.
func (s Scheme) StorageOverhead() float64 {
	if s.Kind == SchemeSRS {
		return float64(s.K+s.M) / float64(s.K)
	}
	return float64(s.R)
}

// String renders the paper's labels: SRS32 for SRS(3,2,s), REP3 for
// Rep(3,s).
func (s Scheme) String() string {
	if s.Kind == SchemeSRS {
		return fmt.Sprintf("SRS(%d,%d,%d)", s.K, s.M, s.S)
	}
	return fmt.Sprintf("Rep(%d,%d)", s.R, s.S)
}

// Label renders the short label used in the paper's figures.
func (s Scheme) Label() string {
	if s.Kind == SchemeSRS {
		return fmt.Sprintf("SRS%d%d", s.K, s.M)
	}
	return fmt.Sprintf("REP%d", s.R)
}

func (w *writer) scheme(s Scheme) {
	w.u8(uint8(s.Kind))
	w.u16(uint16(s.K))
	w.u16(uint16(s.M))
	w.u16(uint16(s.R))
	w.u16(uint16(s.S))
}

func (r *reader) scheme() Scheme {
	return Scheme{
		Kind: SchemeKind(r.u8()),
		K:    int(r.u16()),
		M:    int(r.u16()),
		R:    int(r.u16()),
		S:    int(r.u16()),
	}
}

// MemgestInfo pairs a memgest ID with its scheme and concrete node
// placement, as decided by the leader on createMemgest.
type MemgestInfo struct {
	ID     MemgestID
	Scheme Scheme
	// Redundant lists the nodes holding redundancy for this memgest:
	// the m parity nodes for SRS, the r-1 extra replica nodes for Rep.
	// Coordinators are implicit: shard i is owned by Config.Coords[i].
	Redundant []NodeID
}

func (w *writer) memgestInfo(m MemgestInfo) {
	w.u32(uint32(m.ID))
	w.scheme(m.Scheme)
	w.nodeList(m.Redundant)
}

func (r *reader) memgestInfo() MemgestInfo {
	return MemgestInfo{ID: MemgestID(r.u32()), Scheme: r.scheme(), Redundant: r.nodeList()}
}

// Config is the replicated cluster configuration: the role of every
// node and the set of live memgests. It is produced by the leader,
// numbered by Epoch, and pushed to all nodes; any node or client can
// serve it to anyone who asks (Resolve).
type Config struct {
	Epoch  Epoch
	Leader NodeID
	// Coords[i] is the coordinator node for key shard i; len == s.
	Coords []NodeID
	// Redundant are the d redundancy nodes of the memgest group.
	Redundant []NodeID
	// Spares are idle nodes ready to replace failures.
	Spares []NodeID
	// Memgests lists every live memgest.
	Memgests []MemgestInfo
	// Default is the memgest used by put(key, object) without an
	// explicit memgest.
	Default MemgestID
}

// Shards returns s, the number of key shards.
func (c *Config) Shards() int { return len(c.Coords) }

// ShardOf maps a key hash to its shard: i = h(key) mod s.
func (c *Config) ShardOf(keyHash uint64) int {
	return int(keyHash % uint64(len(c.Coords)))
}

// CoordinatorOf returns the coordinator node for a key hash.
func (c *Config) CoordinatorOf(keyHash uint64) NodeID {
	return c.Coords[c.ShardOf(keyHash)]
}

// Memgest returns the info for id, or nil.
func (c *Config) Memgest(id MemgestID) *MemgestInfo {
	for i := range c.Memgests {
		if c.Memgests[i].ID == id {
			return &c.Memgests[i]
		}
	}
	return nil
}

// Clone deep-copies the configuration.
func (c *Config) Clone() *Config {
	out := &Config{Epoch: c.Epoch, Leader: c.Leader, Default: c.Default}
	out.Coords = append([]NodeID(nil), c.Coords...)
	out.Redundant = append([]NodeID(nil), c.Redundant...)
	out.Spares = append([]NodeID(nil), c.Spares...)
	out.Memgests = make([]MemgestInfo, len(c.Memgests))
	for i, m := range c.Memgests {
		m.Redundant = append([]NodeID(nil), m.Redundant...)
		out.Memgests[i] = m
	}
	return out
}

// AllNodes returns every node mentioned in the config, de-duplicated,
// in role order (coordinators, redundant, spares).
func (c *Config) AllNodes() []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	add := func(ns []NodeID) {
		for _, n := range ns {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	add(c.Coords)
	add(c.Redundant)
	add(c.Spares)
	return out
}

func (w *writer) config(c *Config) {
	w.u64(uint64(c.Epoch))
	w.u32(uint32(c.Leader))
	w.nodeList(c.Coords)
	w.nodeList(c.Redundant)
	w.nodeList(c.Spares)
	w.u16(uint16(len(c.Memgests)))
	for i := range c.Memgests {
		w.memgestInfo(c.Memgests[i])
	}
	w.u32(uint32(c.Default))
}

// nodeList encodes a u16-counted list of node IDs.
func (w *writer) nodeList(ns []NodeID) {
	w.u16(uint16(len(ns)))
	for _, n := range ns {
		w.u32(uint32(n))
	}
}

// nodeList decodes a u16-counted list of node IDs.
func (r *reader) nodeList() []NodeID {
	n := int(r.u16())
	if r.err != nil || n > len(r.b) {
		r.fail()
		return nil
	}
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(r.u32())
	}
	return out
}

func (r *reader) config() *Config {
	c := &Config{Epoch: Epoch(r.u64()), Leader: NodeID(r.u32())}
	c.Coords = r.nodeList()
	c.Redundant = r.nodeList()
	c.Spares = r.nodeList()
	n := int(r.u16())
	if r.err != nil || n > len(r.b) {
		r.fail()
		return c
	}
	c.Memgests = make([]MemgestInfo, n)
	for i := range c.Memgests {
		c.Memgests[i] = r.memgestInfo()
	}
	c.Default = MemgestID(r.u32())
	return c
}

// MetaRecord is one metadata hashtable entry as shipped over the wire
// (replication and recovery). It mirrors the paper's
// key,version -> data,length,committed mapping; Loc fields locate the
// primary bytes in the coordinator's block heap for SRS memgests.
type MetaRecord struct {
	Key       string
	Version   Version
	Memgest   MemgestID
	Committed bool
	Tombstone bool
	Length    uint32
	// LocBlock/LocOff place the value in the SRS logical block space
	// of the coordinator (unused for Rep memgests, which ship values).
	LocBlock uint32
	LocOff   uint32
}

func (w *writer) metaRecord(m *MetaRecord) {
	w.str(m.Key)
	w.u64(uint64(m.Version))
	w.u32(uint32(m.Memgest))
	w.bool(m.Committed)
	w.bool(m.Tombstone)
	w.u32(m.Length)
	w.u32(m.LocBlock)
	w.u32(m.LocOff)
}

// Flags of a shipped record's one flags byte (shortRecord).
const (
	flagCommitted = 1 << iota
	flagTombstone
	flagsAll = flagCommitted | flagTombstone
)

// shortRecord writes the part of a record that a RepAppend or a
// ParityUpdate does not already say: its key, its version and its two
// bools as one flags byte.
func (w *writer) shortRecord(m *MetaRecord) {
	w.str(m.Key)
	w.u64(uint64(m.Version))
	var f uint8
	if m.Committed {
		f |= flagCommitted
	}
	if m.Tombstone {
		f |= flagTombstone
	}
	w.u8(f)
}

// shortRecord reads what shortRecord wrote, the key a view into the
// input (see metaRecord); the caller fills in the rest from its
// message.
func (r *reader) shortRecord() MetaRecord {
	m := MetaRecord{Key: r.view(), Version: Version(r.u64())}
	f := r.u8()
	if f&^flagsAll != 0 && r.err == nil {
		r.err = ErrMalformed
	}
	m.Committed, m.Tombstone = f&flagCommitted != 0, f&flagTombstone != 0
	return m
}

// metaRecord reads a record whose Key is a view into the input, like
// the payload beside it: what keeps a record keeps the key of the table
// it went into.
func (r *reader) metaRecord() MetaRecord {
	return MetaRecord{
		Key:       r.view(),
		Version:   Version(r.u64()),
		Memgest:   MemgestID(r.u32()),
		Committed: r.bool(),
		Tombstone: r.bool(),
		Length:    r.u32(),
		LocBlock:  r.u32(),
		LocOff:    r.u32(),
	}
}
