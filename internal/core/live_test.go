package core_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/txn"
)

// liveCluster is an in-process deployment of real LiveNodes talking
// loopback TCP — the CI-friendly equivalent of one ahlnode process per
// replica plus an ahlctl client.
type liveCluster struct {
	t      *testing.T
	cfg    *core.ClusterConfig
	nodes  map[simnet.NodeID]*core.LiveNode
	trs    map[simnet.NodeID]*transport.TCP
	client *core.LiveClient
}

// startLiveCluster raises shards×per replicas, a reference committee of
// ref nodes, and one client, all over 127.0.0.1 TCP with OS-assigned
// ports. Optional tweaks adjust the config (e.g. a data_dir) before the
// nodes start.
func startLiveCluster(t *testing.T, shards, per, ref int, tweaks ...func(*core.ClusterConfig)) *liveCluster {
	t.Helper()
	cfg := &core.ClusterConfig{
		Seed:           7,
		Variant:        "ahl+",
		BatchTimeoutMs: 20,
	}
	listeners := make(map[simnet.NodeID]net.Listener)
	next := 0
	addNode := func() core.NodeAddr {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		id := next
		next++
		listeners[simnet.NodeID(id)] = ln
		return core.NodeAddr{ID: id, Addr: ln.Addr().String()}
	}
	for s := 0; s < shards; s++ {
		var committee []core.NodeAddr
		for i := 0; i < per; i++ {
			committee = append(committee, addNode())
		}
		cfg.Shards = append(cfg.Shards, committee)
	}
	for i := 0; i < ref; i++ {
		cfg.Reference = append(cfg.Reference, addNode())
	}
	clientAddr := addNode()
	cfg.Clients = []core.NodeAddr{clientAddr}
	for _, tweak := range tweaks {
		tweak(cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	peers := cfg.PeerAddrs()
	cl := &liveCluster{
		t:     t,
		cfg:   cfg,
		nodes: make(map[simnet.NodeID]*core.LiveNode),
		trs:   make(map[simnet.NodeID]*transport.TCP),
	}
	newTransport := func(id simnet.NodeID, ln net.Listener) *transport.TCP {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Listener:    ln,
			Peers:       peers,
			BackoffBase: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for id := range peers {
		if id == simnet.NodeID(clientAddr.ID) {
			continue
		}
		tr := newTransport(id, listeners[id])
		n, err := core.StartLiveNode(cfg, id, tr)
		if err != nil {
			t.Fatal(err)
		}
		cl.nodes[id] = n
		cl.trs[id] = tr
	}
	clientTr := newTransport(simnet.NodeID(clientAddr.ID), listeners[simnet.NodeID(clientAddr.ID)])
	c, err := core.StartLiveClient(cfg, simnet.NodeID(clientAddr.ID), clientTr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Stop()
		clientTr.Close()
		for _, n := range cl.nodes {
			n.Stop()
		}
		for _, tr := range cl.trs {
			tr.Close()
		}
	})
	cl.client = c
	return cl
}

// kill crash-stops a replica the way kill -9 does: storage file handles
// dropped without a final flush, TCP connections severed, no goodbye to
// peers.
func (cl *liveCluster) kill(id simnet.NodeID) {
	cl.t.Helper()
	n, ok := cl.nodes[id]
	if !ok {
		cl.t.Fatalf("kill: node %d not running", id)
	}
	n.Kill()
	cl.trs[id].Close()
	delete(cl.nodes, id)
	delete(cl.trs, id)
}

// restart brings a killed replica back on its original topology address,
// running the full boot-recovery path (snapshot + WAL replay + peer
// statesync).
func (cl *liveCluster) restart(id simnet.NodeID) *core.LiveNode {
	cl.t.Helper()
	if _, ok := cl.nodes[id]; ok {
		cl.t.Fatalf("restart: node %d still running", id)
	}
	addr := cl.cfg.PeerAddrs()[id]
	// The old listener was just closed; rebinding is immediate (Go
	// listeners set SO_REUSEADDR) but give the kernel a moment anyway.
	var ln net.Listener
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			cl.t.Fatalf("restart: rebind %s: %v", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	tr, err := transport.NewTCP(transport.TCPConfig{
		Listener:    ln,
		Peers:       cl.cfg.PeerAddrs(),
		BackoffBase: 50 * time.Millisecond,
	})
	if err != nil {
		cl.t.Fatal(err)
	}
	n, err := core.StartLiveNode(cl.cfg, id, tr)
	if err != nil {
		tr.Close()
		cl.t.Fatalf("restart: node %d: %v", id, err)
	}
	cl.nodes[id] = n
	cl.trs[id] = tr
	return n
}

// settled checks that every running shard replica holds exactly the
// expected balances with no 2PL locks and no staged writes — the
// balance-conservation invariant. Returns the first violation, nil once
// the cluster has fully drained.
func (cl *liveCluster) settled(expected map[string]int64) error {
	shards := len(cl.cfg.Shards)
	for id, n := range cl.nodes {
		if n.Place.Role != core.RoleShardReplica {
			continue
		}
		shard := n.Place.Shard
		var errOut error
		ok := n.Do(func() {
			store := n.Replica.Store()
			if locks := store.Head().KeysWithPrefix("L_"); len(locks) > 0 {
				errOut = fmt.Errorf("node %d: %d locks held: %v", id, len(locks), locks)
				return
			}
			if staged := store.Head().KeysWithPrefix("S_"); len(staged) > 0 {
				errOut = fmt.Errorf("node %d: %d staged writes: %v", id, len(staged), staged)
				return
			}
			var total, wantTotal int64
			for acc, want := range expected {
				if core.ShardOfKey(acc, shards) != shard {
					continue
				}
				raw, found := store.Get("c_" + acc)
				if !found {
					errOut = fmt.Errorf("node %d: account %s missing", id, acc)
					return
				}
				got, err := strconv.ParseInt(string(raw), 10, 64)
				if err != nil {
					errOut = fmt.Errorf("node %d: account %s: %v", id, acc, err)
					return
				}
				if got != want {
					errOut = fmt.Errorf("node %d: account %s = %d, want %d", id, acc, got, want)
					return
				}
				total += got
				wantTotal += want
			}
			if total != wantTotal {
				errOut = fmt.Errorf("node %d shard %d: total %d, want %d", id, shard, total, wantTotal)
			}
		})
		if !ok {
			return fmt.Errorf("node %d stopped", id)
		}
		if errOut != nil {
			return errOut
		}
	}
	return nil
}

// waitSettled polls settled until it passes or the deadline expires.
func (cl *liveCluster) waitSettled(expected map[string]int64, timeout time.Duration) {
	cl.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := cl.settled(expected)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			cl.t.Fatalf("cluster never settled: %v", err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// seedAccounts creates each account with the given starting balance via
// single-shard transactions, acknowledged by f+1 replies.
func (cl *liveCluster) seedAccounts(accs []string, balance int64) {
	cl.t.Helper()
	done := make(chan txn.Result, len(accs))
	for _, acc := range accs {
		tx := chain.Tx{
			ID:        cl.client.NextTxID(),
			Chaincode: "smallbank-sharded",
			Fn:        "create",
			Args:      []string{acc, strconv.FormatInt(balance, 10), "0"},
		}
		if err := cl.client.SubmitSingle(cl.client.ShardOf(acc), tx, func(r txn.Result) { done <- r }); err != nil {
			cl.t.Fatal(err)
		}
	}
	for range accs {
		select {
		case r := <-done:
			if !r.Committed {
				cl.t.Fatalf("seed tx %s failed", r.TxID)
			}
		case <-time.After(60 * time.Second):
			cl.t.Fatal("seeding timed out")
		}
	}
}

// runTransfers submits the cross-shard transfers concurrently and waits
// for every one to commit.
func (cl *liveCluster) runTransfers(dtxs []txn.DTx, timeout time.Duration) {
	cl.t.Helper()
	done := make(chan txn.Result, len(dtxs))
	for _, d := range dtxs {
		if err := cl.client.SubmitDistributed(d, func(r txn.Result) { done <- r }); err != nil {
			cl.t.Fatal(err)
		}
	}
	for range dtxs {
		select {
		case r := <-done:
			if !r.Committed {
				cl.t.Fatalf("cross-shard transfer %s aborted", r.TxID)
			}
		case <-time.After(timeout):
			cl.t.Fatal("cross-shard transfers timed out")
		}
	}
}

// accountsOnShard returns n distinct account names owned by shard.
func accountsOnShard(shards, shard, n int, taken map[string]bool) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		acc := fmt.Sprintf("live%d", i)
		if taken[acc] || core.ShardOfKey(acc, shards) != shard {
			continue
		}
		taken[acc] = true
		out = append(out, acc)
	}
	return out
}

// TestLiveLoopbackClusterSmallBank is the live-cluster smoke test: a
// 2-shard (4 replicas each) + reference-committee deployment of real
// ahlnode-equivalent processes over loopback TCP runs smallbank with
// cross-shard transfers; every transfer must commit and the money supply
// must be conserved exactly on every replica of every shard.
func TestLiveLoopbackClusterSmallBank(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster (seconds of wall clock) skipped in -short")
	}
	const (
		shards, per, ref = 2, 4, 4
		perShardAccs     = 4
		initialBalance   = int64(1000)
	)
	cl := startLiveCluster(t, shards, per, ref)

	taken := make(map[string]bool)
	accs0 := accountsOnShard(shards, 0, perShardAccs, taken)
	accs1 := accountsOnShard(shards, 1, perShardAccs, taken)
	all := append(append([]string(nil), accs0...), accs1...)

	// Seed: single-shard create transactions, acknowledged by f+1 replies.
	cl.seedAccounts(all, initialBalance)

	// Cross-shard transfers between disjoint account pairs (no lock
	// contention, so every one must commit), two waves to reuse accounts.
	expected := make(map[string]int64, len(all))
	for _, acc := range all {
		expected[acc] = initialBalance
	}
	var txSeq int
	transfer := func(from, to string, amount int64) txn.DTx {
		txSeq++
		d := core.PaymentDTx(shards, fmt.Sprintf("live-t%d", txSeq), from, to, amount)
		expected[from] -= amount
		expected[to] += amount
		return d
	}
	// While the transfer waves run, conservation sweeps hammer the query
	// path concurrently: every height-consistent cut must account for the
	// full seeded supply even with 2PC transfers in flight (staged residues
	// resolved against the cut), and the sweeps never touch 2PL or the
	// consensus loop — sub-queries are answered on transport goroutines
	// from immutable sealed views.
	seededSupply := int64(len(all)) * initialBalance
	stopSweeps := make(chan struct{})
	sweepErr := make(chan error, 1)
	var sweeps int64
	go func() {
		defer close(sweepErr)
		for {
			select {
			case <-stopSweeps:
				return
			default:
			}
			res, err := cl.client.Conservation(5, 60*time.Second)
			if err != nil {
				sweepErr <- fmt.Errorf("conservation sweep under load: %v", err)
				return
			}
			sweeps++
			if res.Total != seededSupply {
				sweepErr <- fmt.Errorf("conservation sweep under load: total %d (checking %d + savings %d + applied residue %d) != supply %d at pins %v",
					res.Total, res.Checking, res.Savings, res.Applied, seededSupply, res.Pins)
				return
			}
		}
	}()

	for wave := 0; wave < 2; wave++ {
		var dtxs []txn.DTx
		for i := 0; i < perShardAccs; i++ {
			// shard0 -> shard1 and shard1 -> shard0, disjoint pairs.
			if i%2 == wave%2 {
				dtxs = append(dtxs, transfer(accs0[i], accs1[i], int64(10+i)))
			} else {
				dtxs = append(dtxs, transfer(accs1[i], accs0[i], int64(20+i)))
			}
		}
		cl.runTransfers(dtxs, 120*time.Second)
	}

	close(stopSweeps)
	if err, failed := <-sweepErr; failed {
		t.Fatal(err)
	}
	if sweeps == 0 {
		t.Fatal("no conservation sweep completed during the transfer waves")
	}
	t.Logf("%d conservation sweeps held Total == %d under concurrent cross-shard load", sweeps, seededSupply)

	// Global conservation first: transfers only move money, so the
	// expected balances must still sum to the seeded supply.
	var supply int64
	for _, acc := range all {
		supply += expected[acc]
	}
	if want := int64(len(all)) * initialBalance; supply != want {
		t.Fatalf("expected-balance bookkeeping broken: %d != %d", supply, want)
	}

	// Conservation: once phase 2 has drained everywhere, every replica of
	// every shard must hold the exact expected balances, no 2PL locks and
	// no staged writes. Replicas lag the client-visible outcome (the
	// decide still has to execute), so poll with a deadline.
	cl.waitSettled(expected, 90*time.Second)

	// Drained cluster: the conservation query must see every account, the
	// exact supply, and no staged residues at all.
	res, err := cl.client.Conservation(5, 60*time.Second)
	if err != nil {
		t.Fatalf("conservation after settle: %v", err)
	}
	if res.Total != seededSupply || res.Accounts != uint64(len(all)) {
		t.Fatalf("conservation after settle: total %d accounts %d, want %d / %d",
			res.Total, res.Accounts, seededSupply, len(all))
	}
	if len(res.Residues) != 0 || res.Applied != 0 {
		t.Fatalf("conservation after settle: %d residues (applied %d) on a drained cluster",
			len(res.Residues), res.Applied)
	}

	// Streaming scan: merged rows arrive in global key order across both
	// shards, paged (PageLimit 3 forces several chunks per shard), and the
	// per-account values match the settled expectations.
	got := make(map[string]int64, len(all))
	var keys []string
	scanDone := make(chan error, 1)
	q := &query.Query{
		Spec:      query.Spec{Kind: query.KindScan, Start: "c_", End: chain.PrefixEnd("c_"), Proj: query.ProjKV},
		PageLimit: 3,
		OnRow: func(r query.Row) {
			keys = append(keys, r.K)
			if v, err := strconv.ParseInt(string(r.V), 10, 64); err == nil {
				got[r.K] = v
			}
		},
		OnDone: func(_ *query.Result, err error) { scanDone <- err },
	}
	if err := cl.client.Query(q); err != nil {
		t.Fatalf("scan query: %v", err)
	}
	select {
	case err := <-scanDone:
		if err != nil {
			t.Fatalf("scan query: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("scan query timed out")
	}
	if len(keys) != len(all) {
		t.Fatalf("scan returned %d rows, want %d (%v)", len(keys), len(all), keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan rows out of order: %q before %q", keys[i-1], keys[i])
		}
	}
	for acc, want := range expected {
		if got["c_"+acc] != want {
			t.Fatalf("scan row c_%s = %d, want %d", acc, got["c_"+acc], want)
		}
	}
}

func TestClusterConfigValidate(t *testing.T) {
	good := &core.ClusterConfig{
		Shards: [][]core.NodeAddr{
			{{ID: 0, Addr: "h:1"}, {ID: 1, Addr: "h:2"}, {ID: 2, Addr: "h:3"}},
		},
		Reference: []core.NodeAddr{{ID: 3, Addr: "h:4"}, {ID: 4, Addr: "h:5"}, {ID: 5, Addr: "h:6"}},
		Clients:   []core.NodeAddr{{ID: 6, Addr: "h:7"}},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := good.Topology()
	if len(topo.ShardNodes) != 1 || topo.ShardF[0] != 1 || topo.RefF != 1 {
		t.Fatalf("topology: %+v", topo)
	}
	if place, ok := good.Place(4); !ok || place.Role != core.RoleRefReplica || place.Index != 1 {
		t.Fatalf("place of 4: %+v", place)
	}
	if _, ok := good.Place(99); ok {
		t.Fatal("place of unknown id")
	}

	dup := *good
	dup.Clients = []core.NodeAddr{{ID: 0, Addr: "h:8"}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate id accepted")
	}
	noAddr := &core.ClusterConfig{Shards: [][]core.NodeAddr{{{ID: 0}}}}
	if err := noAddr.Validate(); err == nil {
		t.Fatal("missing address accepted")
	}
	badVariant := *good
	badVariant.Variant = "pow"
	if err := badVariant.Validate(); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestLoadClusterConfigStrict pins strict topology decoding: a file still
// carrying a removed knob must fail naming the field instead of silently
// running a different consensus regime, and trailing data is rejected.
func TestLoadClusterConfigStrict(t *testing.T) {
	const shards = `"shards": [[{"id": 0, "addr": "h:1"}]]`
	load := func(body string) error {
		path := filepath.Join(t.TempDir(), "topology.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := core.LoadClusterConfig(path)
		return err
	}
	if err := load(`{"seed": 1, "batch_timeout_ms": 20, ` + shards + `}`); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	err := load(`{"seed": 1, "pipeline_depth": 4, ` + shards + `}`)
	if err == nil || !strings.Contains(err.Error(), `"pipeline_depth"`) {
		t.Fatalf("topology with removed knob: err %v, want unknown field \"pipeline_depth\"", err)
	}
	if err := load(`{` + shards + `} {}`); err == nil {
		t.Fatal("trailing data after the topology accepted")
	}
}
