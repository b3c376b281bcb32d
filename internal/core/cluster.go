package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/consensus/pbft"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/tee"
	"repro/internal/txn"
)

// liveCosts is the live runtime's default cost model: one nanosecond per
// enclave operation. Effectively free — the process pays real CPU time for
// its real work — but distinguishable from the zero value, which the
// committee builders treat as "use the paper's Table 2 defaults".
func liveCosts() tee.CostModel {
	return tee.CostModel{
		EnclaveSwitch: time.Nanosecond,
		Sign:          time.Nanosecond,
		Verify:        time.Nanosecond,
		SHA256:        time.Nanosecond,
		Append:        time.Nanosecond,
		Beacon:        time.Nanosecond,
		RandGen:       time.Nanosecond,
		Attest:        time.Nanosecond,
	}
}

// NodeAddr names one node of a live deployment: its deployment-wide node
// id, the TCP address its process listens on, and (optionally) the HTTP
// address its observability endpoints — /metrics, /snapshot, /trace,
// /debug/pprof — are served on.
type NodeAddr struct {
	ID          int    `json:"id"`
	Addr        string `json:"addr"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

// ClusterConfig is the static JSON topology every process of a live
// deployment loads: which node ids form which committee, where each
// listens, and the protocol parameters they must agree on. The same file
// drives ahlnode (committee replicas), ahlctl (clients), and the
// in-process loopback cluster used by the live smoke test.
type ClusterConfig struct {
	// Seed derives all per-node key material and enclave randomness;
	// every process must use the same value.
	Seed int64 `json:"seed"`
	// Variant names the protocol configuration: hl, ahl, ahl+op1, ahl+,
	// or ahlr (default ahl+).
	Variant string `json:"variant,omitempty"`
	// Shards lists each shard committee's replicas.
	Shards [][]NodeAddr `json:"shards"`
	// Reference lists the reference committee (empty disables cross-shard
	// coordination).
	Reference []NodeAddr `json:"reference,omitempty"`
	// Clients lists client gateways (ahlctl instances); clients receive
	// replies and outcome notifications, so they need addresses too.
	Clients []NodeAddr `json:"clients,omitempty"`

	// BatchTimeoutMs overrides the leader batch timeout in milliseconds.
	BatchTimeoutMs int `json:"batch_timeout_ms,omitempty"`
	// Table2Costs charges the paper's measured SGX operation latencies
	// (Table 2) to each node's virtual CPU, as the simulator does. Live
	// deployments default to free costs: the real process pays real CPU.
	Table2Costs bool `json:"table2_costs,omitempty"`

	// DataDir roots each replica's durable state (WAL + snapshots) at
	// <DataDir>/node-<id>/; empty runs memory-only, with recovery relying
	// entirely on peer state sync. Per-process overrides (ahlnode -data)
	// replace this path before StartLiveNode.
	DataDir string `json:"data_dir,omitempty"`
	// Fsync selects the WAL durability/latency trade-off: "always" (fsync
	// every append; the default), "interval" (fsync at most every
	// FsyncIntervalMs), or "off" (fsync only at snapshots and shutdown).
	Fsync string `json:"fsync,omitempty"`
	// FsyncIntervalMs is the "interval" mode's fsync period (default 50).
	FsyncIntervalMs int `json:"fsync_interval_ms,omitempty"`
	// WALSegmentKB overrides the WAL segment roll size in KiB (default
	// 4096).
	WALSegmentKB int `json:"wal_segment_kb,omitempty"`
}

// LoadClusterConfig reads and validates a topology file.
func LoadClusterConfig(path string) (*ClusterConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Unknown fields are errors: a topology still carrying a removed knob
	// must fail loudly rather than silently run a different regime.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c ClusterConfig
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("cluster: parse %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("cluster: parse %s: trailing data after the topology object", path)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks structural invariants: at least one non-empty shard,
// unique node ids, and an address for every node.
func (c *ClusterConfig) Validate() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("cluster: no shards")
	}
	if _, err := c.PBFTVariant(); err != nil {
		return err
	}
	seen := make(map[int]string)
	check := func(kind string, nodes []NodeAddr) error {
		if len(nodes) == 0 {
			return fmt.Errorf("cluster: empty %s committee", kind)
		}
		for _, n := range nodes {
			if n.ID < 0 || n.ID > 0xFFFF {
				// 16-bit ids keep the live clients' partitioned tx-id
				// space (id | salt | counter) collision-free.
				return fmt.Errorf("cluster: node id %d outside [0, 65535]", n.ID)
			}
			if n.Addr == "" {
				return fmt.Errorf("cluster: node %d (%s) has no address", n.ID, kind)
			}
			if prev, dup := seen[n.ID]; dup {
				return fmt.Errorf("cluster: node id %d in both %s and %s", n.ID, prev, kind)
			}
			seen[n.ID] = kind
		}
		return nil
	}
	for s, nodes := range c.Shards {
		if err := check(fmt.Sprintf("shard %d", s), nodes); err != nil {
			return err
		}
	}
	if len(c.Reference) > 0 {
		if err := check("reference", c.Reference); err != nil {
			return err
		}
	}
	for _, n := range c.Clients {
		if err := check("clients", []NodeAddr{n}); err != nil {
			return err
		}
	}
	if _, err := c.fsyncMode(); err != nil {
		return err
	}
	return nil
}

// livePipelineDepth is the in-flight proposal cap of every live replica.
// Deep enough to keep consensus busy across the commit round trip,
// shallow enough that a restarting replica replays at most this many
// blocks past its snapshot.
const livePipelineDepth = 8

// fsyncMode parses the Fsync field.
func (c *ClusterConfig) fsyncMode() (storage.FsyncMode, error) {
	switch c.Fsync {
	case "", "always":
		return storage.FsyncAlways, nil
	case "interval":
		return storage.FsyncInterval, nil
	case "off":
		return storage.FsyncOff, nil
	default:
		return "", fmt.Errorf("cluster: unknown fsync mode %q (want always|interval|off)", c.Fsync)
	}
}

// NodeDataDir returns node id's durable-state directory, or "" when the
// deployment runs memory-only.
func (c *ClusterConfig) NodeDataDir(id simnet.NodeID) string {
	if c.DataDir == "" {
		return ""
	}
	return filepath.Join(c.DataDir, fmt.Sprintf("node-%d", id))
}

// PBFTVariant parses the Variant field.
func (c *ClusterConfig) PBFTVariant() (pbft.Variant, error) {
	switch c.Variant {
	case "", "ahl+":
		return pbft.VariantAHLPlus, nil
	case "hl":
		return pbft.VariantHL, nil
	case "ahl":
		return pbft.VariantAHL, nil
	case "ahl+op1":
		return pbft.VariantAHLOpt1, nil
	case "ahlr":
		return pbft.VariantAHLR, nil
	default:
		return 0, fmt.Errorf("cluster: unknown variant %q (want hl|ahl|ahl+op1|ahl+|ahlr)", c.Variant)
	}
}

func ids(nodes []NodeAddr) []simnet.NodeID {
	out := make([]simnet.NodeID, len(nodes))
	for i, n := range nodes {
		out[i] = simnet.NodeID(n.ID)
	}
	return out
}

// Topology derives the transaction-layer topology (committee membership
// and fault tolerances) every manager and client shares.
func (c *ClusterConfig) Topology() txn.Topology {
	v, _ := c.PBFTVariant()
	t := txn.Topology{
		ShardNodes: make([][]simnet.NodeID, len(c.Shards)),
		ShardF:     make([]int, len(c.Shards)),
	}
	for s, nodes := range c.Shards {
		t.ShardNodes[s] = ids(nodes)
		t.ShardF[s] = v.Committee(t.ShardNodes[s]).F
	}
	if len(c.Reference) > 0 {
		t.RefNodes = ids(c.Reference)
		t.RefF = v.Committee(t.RefNodes).F
	}
	return t
}

// PeerAddrs maps every node id in the topology to its address — the
// routing table handed to the TCP transport.
func (c *ClusterConfig) PeerAddrs() map[simnet.NodeID]string {
	out := make(map[simnet.NodeID]string)
	for _, nodes := range c.Shards {
		for _, n := range nodes {
			out[simnet.NodeID(n.ID)] = n.Addr
		}
	}
	for _, n := range c.Reference {
		out[simnet.NodeID(n.ID)] = n.Addr
	}
	for _, n := range c.Clients {
		out[simnet.NodeID(n.ID)] = n.Addr
	}
	return out
}

// Place locates a node id in the topology.
type Place struct {
	// Role is the node's job.
	Role Role
	// Shard is the shard committee index (RoleShardReplica only).
	Shard int
	// Index is the replica index within its committee.
	Index int
}

// Role classifies a topology node.
type Role int

// The live node roles.
const (
	RoleShardReplica Role = iota
	RoleRefReplica
	RoleClient
)

func (r Role) String() string {
	switch r {
	case RoleShardReplica:
		return "shard-replica"
	case RoleRefReplica:
		return "reference-replica"
	case RoleClient:
		return "client"
	default:
		return "role?"
	}
}

// MetricsAddr returns node id's configured observability address, or ""
// when the topology does not expose one for it.
func (c *ClusterConfig) MetricsAddr(id simnet.NodeID) string {
	for _, nodes := range c.Shards {
		for _, n := range nodes {
			if simnet.NodeID(n.ID) == id {
				return n.MetricsAddr
			}
		}
	}
	for _, n := range c.Reference {
		if simnet.NodeID(n.ID) == id {
			return n.MetricsAddr
		}
	}
	return ""
}

// ReplicaNodes returns every shard and reference replica of the topology
// in declaration order — the scrape set for cluster-wide aggregation.
func (c *ClusterConfig) ReplicaNodes() []NodeAddr {
	var out []NodeAddr
	for _, nodes := range c.Shards {
		out = append(out, nodes...)
	}
	out = append(out, c.Reference...)
	return out
}

// Place returns where node id sits in the topology.
func (c *ClusterConfig) Place(id simnet.NodeID) (Place, bool) {
	for s, nodes := range c.Shards {
		for i, n := range nodes {
			if simnet.NodeID(n.ID) == id {
				return Place{Role: RoleShardReplica, Shard: s, Index: i}, true
			}
		}
	}
	for i, n := range c.Reference {
		if simnet.NodeID(n.ID) == id {
			return Place{Role: RoleRefReplica, Index: i}, true
		}
	}
	for i, n := range c.Clients {
		if simnet.NodeID(n.ID) == id {
			return Place{Role: RoleClient, Index: i}, true
		}
	}
	return Place{}, false
}

// liveConfig translates the cluster topology into the deployment Config
// both runtimes build committees from (see ShardSpec/RefSpec).
func (c *ClusterConfig) liveConfig() Config {
	v, _ := c.PBFTVariant()
	cfg := Config{
		Seed:        c.Seed,
		Shards:      len(c.Shards),
		ShardSize:   len(c.Shards[0]),
		RefSize:     len(c.Reference),
		Variant:     v,
		Clients:     len(c.Clients),
		SendReplies: true, // live clients are closed-loop
	}
	if c.Table2Costs {
		cfg.Costs = tee.DefaultCosts()
	} else {
		cfg.Costs = liveCosts()
	}
	// The live regime is fixed, not configurable: pipelined, adaptively
	// batched and parallel. The simulator keeps the pbft.Options zero
	// values, so the published figures stay byte-identical; each regime
	// measurably wins on its own runtime's workloads (see pbft's package
	// documentation).
	cfg.Tune = func(o *pbft.Options) {
		o.PipelineDepth = livePipelineDepth
		o.AdaptiveBatch = true
		o.ExecWorkers = min(runtime.NumCPU(), 8)
		if c.BatchTimeoutMs > 0 {
			o.Timing.BatchTimeout = time.Duration(c.BatchTimeoutMs) * time.Millisecond
		}
		if !c.Table2Costs {
			// The process pays real CPU for hashing and tag checks; do not
			// also charge the simulator's modelled verification time.
			o.ExecPerTx = 0
			o.RequestVerify = 0
		}
	}
	return cfg
}
