// Package ring is a strongly consistent, distributed, in-memory
// key-value store with per-item resilience management, a from-scratch
// Go implementation of the system described in "Fast and
// strongly-consistent per-item resilience in key-value stores"
// (Taranov, Alonso, Hoefler; EuroSys 2018).
//
// Every key lives in a single strongly consistent namespace, but each
// key-value pair can be stored under its own storage scheme — a
// "memgest" — ranging from unreliable single copies (Rep(1,s)) through
// quorum replication (Rep(r,s)) to Stretched Reed-Solomon erasure
// coding (SRS(k,m,s)). Stretched Reed-Solomon spreads the data blocks
// of an RS(k,m) code over s >= k nodes so that every scheme shares the
// key-to-node mapping i = h(key) mod s; keys are found without knowing
// their scheme and can be moved between schemes with a purely local
// operation on their coordinator.
//
// The package is a facade over the full implementation: an embedded
// in-process cluster for applications and tests, plus the types needed
// to talk to a TCP deployment started with cmd/ringd.
//
//	cluster, _ := ring.Start(ring.Config{
//		Shards: 3, Redundant: 2, Spares: 1,
//		Memgests: []ring.Scheme{ring.Rep(1, 3), ring.Rep(3, 3), ring.SRS(3, 2, 3)},
//	})
//	defer cluster.Stop()
//	c, _ := cluster.NewClient()
//	c.PutIn("hot-item", value, 2)  // replicated 3x
//	c.Move("hot-item", 3)          // re-encode as SRS(3,2,3), locally
package ring

import (
	"fmt"
	"time"

	"ring/internal/client"
	"ring/internal/core"
	"ring/internal/proto"
	"ring/internal/status"
)

// Scheme describes a storage scheme (memgest descriptor).
type Scheme = proto.Scheme

// MemgestID identifies a memgest.
type MemgestID = proto.MemgestID

// Version numbers versions of a key.
type Version = proto.Version

// Rep builds a replication descriptor Rep(r,s); r=1 is the unreliable
// scheme.
func Rep(r, s int) Scheme { return proto.Rep(r, s) }

// SRS builds a Stretched Reed-Solomon descriptor SRS(k,m,s).
func SRS(k, m, s int) Scheme { return proto.SRS(k, m, s) }

// ErrNotFound is returned by Get, Delete and Move for missing keys.
var ErrNotFound = client.ErrNotFound

// Config describes an embedded cluster.
type Config struct {
	// Shards is s: the number of key shards / coordinator nodes.
	Shards int
	// Redundant is d: the number of redundancy nodes, bounding the
	// parity count of SRS memgests (m <= d) and the replication factor
	// of Rep memgests (r <= s+d).
	Redundant int
	// Spares is the number of idle nodes ready to replace failures.
	Spares int
	// Memgests are created at boot with IDs 1..n; the first is the
	// default storage scheme.
	Memgests []Scheme
	// BlockSize is the SRS logical block capacity (default 64 KiB).
	BlockSize int
	// HeartbeatEvery and FailAfter tune the failure detector.
	HeartbeatEvery time.Duration
	FailAfter      time.Duration
	// KeepVersions retains that many superseded committed versions of
	// each key (default 0: GC after every committed put).
	KeepVersions int
	// KeepDurableBackup pins the newest committed version stored in a
	// reliable scheme while newer versions live in the unreliable
	// Rep(1) memgest — the paper's "preserving previous reliable
	// copies" for the heavy-updates use case.
	KeepDurableBackup bool
}

// Cluster is an embedded in-process Ring deployment: every node runs
// as a goroutine-driven state machine over an in-memory fabric, with
// the same protocol, replication, recovery, and failure handling as a
// TCP deployment.
type Cluster struct {
	inner *core.Cluster
}

// Start boots an embedded cluster.
func Start(cfg Config) (*Cluster, error) {
	spec := core.ClusterSpec{
		Shards:    cfg.Shards,
		Redundant: cfg.Redundant,
		Spares:    cfg.Spares,
		Memgests:  cfg.Memgests,
		Opts: core.Options{
			BlockSize:         cfg.BlockSize,
			HeartbeatEvery:    cfg.HeartbeatEvery,
			FailAfter:         cfg.FailAfter,
			KeepVersions:      cfg.KeepVersions,
			KeepDurableBackup: cfg.KeepDurableBackup,
		},
	}
	inner, err := core.StartCluster(spec)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// Stop shuts down every node.
func (c *Cluster) Stop() { c.inner.Stop() }

// KillNode crashes one node (for failure testing); the leader will
// promote a spare. Node IDs are assigned 0..s+d+n-1 in role order
// (coordinators, redundant, spares).
func (c *Cluster) KillNode(id uint32) { c.inner.Kill(proto.NodeID(id)) }

// StatusServer serves one node's monitoring endpoints over HTTP:
// /status, /metrics, /debug/ringvars, and /debug/trace.
type StatusServer = status.Server

// ServeStatus starts the monitoring endpoints for one node of the
// embedded cluster on addr ("127.0.0.1:0" picks a free port; the
// server's Addr reports it). `ringctl stats -http <addr,...>` can then
// aggregate the cluster.
func (c *Cluster) ServeStatus(nodeID uint32, addr string) (*StatusServer, error) {
	r, ok := c.inner.Runs[proto.NodeID(nodeID)]
	if !ok {
		return nil, fmt.Errorf("ring: no node %d", nodeID)
	}
	return status.Serve(r, addr)
}

// NewClient connects a client to the embedded cluster.
func (c *Cluster) NewClient() (*Client, error) {
	inner, err := client.Dial(c.inner.Fabric, []string{core.NodeAddr(c.inner.Cfg.Leader)}, client.Options{})
	if err != nil {
		return nil, err
	}
	return &Client{inner: inner}, nil
}

// Client is a synchronous Ring client, safe for concurrent use: N
// goroutines calling one Client keep N operations in flight.
type Client struct {
	inner *client.Client
}

// Close releases the client.
func (c *Client) Close() { c.inner.Close() }

// Put stores value under key in the default memgest and returns the
// committed version.
func (c *Client) Put(key string, value []byte) (Version, error) {
	return c.inner.Put(key, value)
}

// PutIn stores value under key in a specific memgest.
func (c *Client) PutIn(key string, value []byte, mg MemgestID) (Version, error) {
	return c.inner.PutIn(key, value, mg)
}

// Get returns the value and version of key's newest committed version.
func (c *Client) Get(key string) ([]byte, Version, error) {
	return c.inner.Get(key)
}

// GetVersion returns a specific retained version of key (0 = newest);
// with Config.KeepVersions > 0 this reads the preserved older copy —
// e.g. the last reliable version of a key currently parked in the
// unreliable memgest.
func (c *Client) GetVersion(key string, ver Version) ([]byte, Version, error) {
	return c.inner.GetVersion(key, ver)
}

// Delete removes key.
func (c *Client) Delete(key string) error { return c.inner.Delete(key) }

// Move transfers key to another memgest without resending its value;
// thanks to SRS coding the re-encode is local to the coordinator.
func (c *Client) Move(key string, mg MemgestID) (Version, error) {
	return c.inner.Move(key, mg)
}

// CreateMemgest instantiates a new storage scheme at runtime.
func (c *Client) CreateMemgest(sc Scheme) (MemgestID, error) {
	return c.inner.CreateMemgest(sc)
}

// DeleteMemgest removes a memgest; keys stored only in it are lost.
func (c *Client) DeleteMemgest(id MemgestID) error {
	return c.inner.DeleteMemgest(id)
}

// SetDefaultMemgest selects the scheme used by Put.
func (c *Client) SetDefaultMemgest(id MemgestID) error {
	return c.inner.SetDefaultMemgest(id)
}

// GetMemgestDescriptor returns a memgest's scheme.
func (c *Client) GetMemgestDescriptor(id MemgestID) (Scheme, error) {
	return c.inner.GetMemgestDescriptor(id)
}
