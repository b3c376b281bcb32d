// Package core assembles the paper's system: a sharded, permissioned
// blockchain in which a trusted-beacon shard-formation protocol partitions
// N nodes into committees, each committee runs the AHL+ consensus protocol
// over its own partition of the ledger state, and a Byzantine
// fault-tolerant reference committee coordinates cross-shard transactions
// with 2PC/2PL (Figure 1b).
//
// A System is a complete deployment on the discrete-event simulator: shard
// committees, the optional reference committee, transaction managers on
// every replica, client gateways, and the chosen network environment (LAN
// cluster or the 8-region GCP latency matrix of Table 3).
package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/chaincode/shardlib"
	"repro/internal/consensus"
	"repro/internal/consensus/pbft"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tee"
	"repro/internal/txn"
)

// Environment selects the network model.
type Environment struct {
	// GCPRegions > 0 deploys across that many Table 3 regions; 0 selects
	// the LAN cluster.
	GCPRegions int
}

// Config describes a deployment.
type Config struct {
	Seed      int64
	Shards    int
	ShardSize int
	// RefSize is the reference committee size; 0 disables cross-shard
	// coordination (the Figure 14 configuration).
	RefSize int
	// RefGroups runs that many parallel reference committee instances of
	// RefSize nodes each (§6.2: "we can scale it out by running multiple
	// instances of R in parallel"). 0 or 1 selects a single instance.
	RefGroups int
	Variant   pbft.Variant
	Env       Environment
	// Clients is the number of client gateways to attach.
	Clients int
	// SendReplies enables per-transaction replies (closed-loop drivers).
	SendReplies bool
	// Costs is the TEE cost model; zero value selects Table 2 defaults.
	Costs tee.CostModel
	// Tune adjusts replica options after defaults are applied.
	Tune func(*pbft.Options)
	// ExtraShardCodes, when set, returns additional chaincodes installed
	// on every shard replica (e.g. custom contracts wrapped by
	// shardlib.AutoShard). It is called once per replica so each gets
	// fresh instances.
	ExtraShardCodes func() []chaincode.Chaincode
	// Behaviors maps a global node id to a misbehavior.
	Behaviors map[simnet.NodeID]pbft.Behavior
	// Obs attaches one engine-clocked observability hub to every replica
	// (System.Obs). Off by default: the benchmark harnesses leave it off,
	// so their schedules and reports stay byte-identical; with it on, all
	// timestamps come from the engine clock, keeping traces deterministic.
	Obs bool
}

// System is a running sharded blockchain deployment.
type System struct {
	Config Config
	Engine *sim.Engine
	Net    *simnet.Network
	Scheme blockcrypto.Scheme

	ShardCommittees []*pbft.BuiltCommittee
	// RefCommittees holds the parallel reference committee instances;
	// RefCommittee aliases instance 0 for the common single-instance case.
	RefCommittees []*pbft.BuiltCommittee
	RefCommittee  *pbft.BuiltCommittee
	Managers      []*txn.Manager
	Topology      txn.Topology

	// Obs is the deployment-wide observability hub (nil unless Config.Obs):
	// one hub shared by every replica, timestamped by the engine clock,
	// with events distinguished by node id.
	Obs *obs.Hub

	clients []*txn.Client
	// queryGateways lazily caches one scatter-gather gateway per client
	// (the gateway wraps the client endpoint's handler once).
	queryGateways []*query.Gateway

	epoch uint64
	rng   *rand.Rand
}

// ShardRegistry builds the chaincode registry every shard replica runs:
// the plain benchmark chaincodes, the paper's hand-refactored sharded
// variants (§6.3), and the automatically transformed variants (§6.4,
// shardlib.AutoShard).
func ShardRegistry() *chaincode.Registry {
	return chaincode.NewRegistry(
		chaincode.KVStore{}, chaincode.SmallBank{},
		chaincode.ShardedKVStore{}, chaincode.ShardedSmallBank{},
		shardlib.AutoShard(AutoSmallBank, chaincode.SmallBankLogic),
		shardlib.AutoShard(AutoKVStore, chaincode.KVStoreLogic),
	)
}

// RefRegistry builds the reference committee's registry.
func RefRegistry() *chaincode.Registry {
	return chaincode.NewRegistry(txn.RefCom{})
}

// NewSystem builds and wires a deployment. Node ids are assigned densely:
// shard committees first, then the reference committee, then clients.
func NewSystem(cfg Config) *System {
	if cfg.Shards < 1 || cfg.ShardSize < 1 {
		panic("core: need at least one shard with one node")
	}
	engine := sim.NewEngine(cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	// Enumerate all node ids up front so the latency model can assign
	// regions.
	var all []simnet.NodeID
	next := simnet.NodeID(0)
	shardIDs := make([][]simnet.NodeID, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		for j := 0; j < cfg.ShardSize; j++ {
			shardIDs[s] = append(shardIDs[s], next)
			all = append(all, next)
			next++
		}
	}
	refGroups := 0
	if cfg.RefSize > 0 {
		refGroups = cfg.RefGroups
		if refGroups < 1 {
			refGroups = 1
		}
	}
	refGroupIDs := make([][]simnet.NodeID, refGroups)
	for g := 0; g < refGroups; g++ {
		for j := 0; j < cfg.RefSize; j++ {
			refGroupIDs[g] = append(refGroupIDs[g], next)
			all = append(all, next)
			next++
		}
	}
	var clientIDs []simnet.NodeID
	for j := 0; j < cfg.Clients; j++ {
		clientIDs = append(clientIDs, next)
		all = append(all, next)
		next++
	}

	var latency simnet.LatencyModel
	if cfg.Env.GCPRegions > 0 {
		latency = simnet.GCP(cfg.Env.GCPRegions, all)
	} else {
		latency = simnet.LAN()
	}
	net := simnet.New(engine, latency)
	scheme := blockcrypto.NewSimScheme()

	sys := &System{
		Config: cfg,
		Engine: engine,
		Net:    net,
		Scheme: scheme,
		rng:    rng,
	}
	if cfg.Obs {
		sys.Obs = obs.NewHub(func() int64 { return int64(engine.Now()) }, obs.Options{})
	}

	shardF := make([]int, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		spec := ShardSpec(cfg, shardIDs[s], behaviorsFor(cfg.Behaviors, shardIDs[s]))
		spec.Obs = sys.Obs
		bc := pbft.Build(net, scheme, rng, spec)
		sys.ShardCommittees = append(sys.ShardCommittees, bc)
		shardF[s] = bc.Committee.F
	}

	refGroupFs := make([]int, refGroups)
	for g := 0; g < refGroups; g++ {
		spec := RefSpec(cfg, refGroupIDs[g], behaviorsFor(cfg.Behaviors, refGroupIDs[g]))
		spec.Obs = sys.Obs
		bc := pbft.Build(net, scheme, rng, spec)
		sys.RefCommittees = append(sys.RefCommittees, bc)
		refGroupFs[g] = bc.Committee.F
	}

	sys.Topology = txn.Topology{
		ShardNodes: shardIDs,
		ShardF:     shardF,
	}
	if refGroups > 0 {
		sys.RefCommittee = sys.RefCommittees[0]
		sys.Topology.RefNodes = refGroupIDs[0]
		sys.Topology.RefF = refGroupFs[0]
		if refGroups > 1 {
			sys.Topology.RefGroups = refGroupIDs
			sys.Topology.RefGroupFs = refGroupFs
		}
	}

	// Attach transaction managers when cross-shard coordination is on.
	if refGroups > 0 {
		for s, bc := range sys.ShardCommittees {
			for _, r := range bc.Replicas {
				sys.Managers = append(sys.Managers,
					txn.NewManager(txn.RoleShard, s, sys.Topology, r))
			}
		}
		for g, bc := range sys.RefCommittees {
			for _, r := range bc.Replicas {
				sys.Managers = append(sys.Managers,
					txn.NewManager(txn.RoleReference, g, sys.Topology, r))
			}
		}
	}

	for _, id := range clientIDs {
		sys.clients = append(sys.clients, txn.NewClient(net, id, sys.Topology))
	}

	// Query services answer height-pinned reads on every shard replica.
	// They sit outermost on the handler chain and pass all non-query
	// traffic through untouched, so deployments that never issue queries
	// behave byte-identically to before.
	for _, bc := range sys.ShardCommittees {
		for _, r := range bc.Replicas {
			query.AttachService(r.Endpoint(), r.Store())
		}
	}
	return sys
}

// optionsTune returns the replica-options tuning closure a deployment
// described by cfg applies to every committee: environment-appropriate
// timeouts, reply policy, and the caller's own Tune on top.
func optionsTune(cfg Config) func(*pbft.Options) {
	timing := consensus.DefaultTiming()
	if cfg.Env.GCPRegions > 1 {
		timing = consensus.WANTiming()
	}
	return func(o *pbft.Options) {
		o.Timing = timing
		o.SendReplies = cfg.SendReplies
		if cfg.Tune != nil {
			cfg.Tune(o)
		}
	}
}

// ShardSpec describes one shard committee of the deployment cfg over the
// given member nodes — the committee-assembly recipe shared by the
// simulator (NewSystem → pbft.Build) and the live runtime (LiveNode →
// pbft.BuildReplica), so a standalone process raises a replica wired
// identically to its simulated twin.
func ShardSpec(cfg Config, nodes []simnet.NodeID, behaviors map[int]pbft.Behavior) pbft.CommitteeSpec {
	shardReg := ShardRegistry
	if cfg.ExtraShardCodes != nil {
		shardReg = func() *chaincode.Registry {
			reg := ShardRegistry()
			for _, cc := range cfg.ExtraShardCodes() {
				reg.Register(cc)
			}
			return reg
		}
	}
	return pbft.CommitteeSpec{
		Variant:   cfg.Variant,
		Nodes:     nodes,
		Behaviors: behaviors,
		Registry:  shardReg,
		Tune:      optionsTune(cfg),
		Costs:     cfg.Costs,
	}
}

// RefSpec describes one reference-committee instance of the deployment
// cfg; see ShardSpec for the sharing contract.
func RefSpec(cfg Config, nodes []simnet.NodeID, behaviors map[int]pbft.Behavior) pbft.CommitteeSpec {
	return pbft.CommitteeSpec{
		Variant:   cfg.Variant,
		Nodes:     nodes,
		Behaviors: behaviors,
		Registry:  RefRegistry,
		Tune:      optionsTune(cfg),
		Costs:     cfg.Costs,
	}
}

func behaviorsFor(global map[simnet.NodeID]pbft.Behavior, nodes []simnet.NodeID) map[int]pbft.Behavior {
	if len(global) == 0 {
		return nil
	}
	out := make(map[int]pbft.Behavior)
	for i, id := range nodes {
		if b, ok := global[id]; ok {
			out[i] = b
		}
	}
	return out
}

// Client returns client gateway i.
func (s *System) Client(i int) *txn.Client { return s.clients[i%len(s.clients)] }

// QueryGateway returns the scatter-gather query gateway riding on client
// i's endpoint, attaching it on first use.
func (s *System) QueryGateway(i int) *query.Gateway {
	i = i % len(s.clients)
	for len(s.queryGateways) <= i {
		s.queryGateways = append(s.queryGateways, nil)
	}
	if s.queryGateways[i] == nil {
		s.queryGateways[i] = query.NewGateway(s.clients[i].Endpoint())
	}
	return s.queryGateways[i]
}

// QueryTargets returns one query-serving replica per shard (the first
// replica of each committee), the scatter set for Gateway queries.
func (s *System) QueryTargets() []simnet.NodeID {
	out := make([]simnet.NodeID, len(s.Topology.ShardNodes))
	for i, nodes := range s.Topology.ShardNodes {
		out[i] = nodes[0]
	}
	return out
}

// Clients returns the number of attached client gateways.
func (s *System) Clients() int { return len(s.clients) }

// ShardOfKey maps an application key to its owning shard by hash, the
// uniform placement Appendix B assumes.
func (s *System) ShardOfKey(key string) int {
	return ShardOfKey(key, s.Config.Shards)
}

// ShardOfKey maps a key to one of k shards by cryptographic hash.
func ShardOfKey(key string, k int) int {
	d := blockcrypto.Hash([]byte("placement:" + key))
	v := uint64(d[0])<<24 | uint64(d[1])<<16 | uint64(d[2])<<8 | uint64(d[3])
	return int(v % uint64(k))
}

// Run advances the simulation by d.
func (s *System) Run(d time.Duration) { s.Engine.Run(s.Engine.Now().Add(d)) }

// InjectFaults installs a deterministic fault injector over the system's
// network and returns it for schedule declarations (crashes, partitions,
// protocol-point triggers). Byzantine behaviors are not injected here —
// configure them at build time through Config.Behaviors. Combining the
// injector with ReshardAt exercises reconfiguration under faults.
func (s *System) InjectFaults(cfg faults.Config) *faults.Injector {
	return faults.New(s.Net, cfg)
}

// TotalExecuted sums, across shards, the transaction count executed by a
// quorum of each committee.
func (s *System) TotalExecuted() int {
	total := 0
	for _, bc := range s.ShardCommittees {
		total += bc.ExecutedOnQuorum()
	}
	return total
}

// Seed populates the shards with SmallBank accounts acc0..accN-1 (each
// routed to its owning shard) by injecting creation transactions and
// running the engine until they commit.
func (s *System) Seed(accounts int, balance int64) {
	var id uint64 = 1 << 60
	for i := 0; i < accounts; i++ {
		acc := Account(i)
		shard := s.ShardOfKey(acc)
		id++
		tx := chain.Tx{
			ID:        id,
			Chaincode: "smallbank-sharded",
			Fn:        "create",
			Args:      []string{acc, strconv.FormatInt(balance, 10), "0"},
		}
		s.ShardCommittees[shard].Replicas[0].SubmitLocal(tx)
	}
	s.Run(30 * time.Second)
}

// Account formats the canonical benchmark account name.
func Account(i int) string { return fmt.Sprintf("acc%d", i) }

// BalanceOnShard reads acc's checking balance from shard replica 0; used
// by tests and examples to verify end-to-end effects.
func (s *System) BalanceOnShard(acc string) (int64, bool) {
	shard := s.ShardOfKey(acc)
	v, ok := s.ShardCommittees[shard].Replicas[0].Store().Get("c_" + acc)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(v), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// PaymentDTx builds the cross-shard sendPayment distributed transaction of
// §6.3: a debit prepare on the payer's shard and a credit prepare on the
// payee's shard, completed by commitPayment/abortPayment.
func (s *System) PaymentDTx(txid, from, to string, amount int64) txn.DTx {
	return PaymentDTx(s.Config.Shards, txid, from, to, amount)
}

// PaymentDTx is the free-standing form of System.PaymentDTx for callers
// that only know the shard count — the live client drivers, which have a
// topology but no System.
func PaymentDTx(shards int, txid, from, to string, amount int64) txn.DTx {
	return txn.DTx{
		TxID:      txid,
		Chaincode: "smallbank-sharded",
		Ops: []txn.Op{
			{Shard: ShardOfKey(from, shards), Fn: "preparePayment",
				Args: []string{txid, from, strconv.FormatInt(-amount, 10)}},
			{Shard: ShardOfKey(to, shards), Fn: "preparePayment",
				Args: []string{txid, to, strconv.FormatInt(amount, 10)}},
		},
		CommitFn: "commitPayment",
		AbortFn:  "abortPayment",
	}
}

// KVUpdateDTx builds a cross-shard KVStore update (the modified BLOCKBENCH
// driver of §7 issues 3 updates per transaction). Keys are grouped by
// owning shard into one prepare op per shard.
func (s *System) KVUpdateDTx(txid string, kv map[string]string) txn.DTx {
	perShard := make(map[int][]string)
	//ahl:nondeterministic pairs are bucketed per shard and re-sorted by sortPairs before the op is built, so bucket fill order is immaterial
	for k, v := range kv {
		sh := s.ShardOfKey(k)
		perShard[sh] = append(perShard[sh], k, v)
	}
	d := txn.DTx{
		TxID:      txid,
		Chaincode: "kvstore-sharded",
		CommitFn:  "commit",
		AbortFn:   "abort",
	}
	// Deterministic op order.
	for sh := 0; sh < s.Config.Shards; sh++ {
		if kvs, ok := perShard[sh]; ok {
			sortPairs(kvs)
			d.Ops = append(d.Ops, txn.Op{Shard: sh, Fn: "prepare",
				Args: append([]string{txid}, kvs...)})
		}
	}
	return d
}

func sortPairs(kvs []string) {
	// Insertion sort over (key, value) pairs by key; slices are tiny.
	for i := 2; i < len(kvs); i += 2 {
		for j := i; j >= 2 && kvs[j] < kvs[j-2]; j -= 2 {
			kvs[j], kvs[j-2] = kvs[j-2], kvs[j]
			kvs[j+1], kvs[j-1] = kvs[j-1], kvs[j+1]
		}
	}
}
