package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/txn"
)

// The benchmark's cluster: 2 shards of 4 replicas, a reference committee
// of 4 and one client gateway, all in this process over loopback TCP with
// OS-assigned ports. The ahl+ variant journals to a WAL with interval
// fsync, and nothing injects delay, so latency is processor time plus
// loopback.
const (
	shardCount     = 2
	shardReplicas  = 4
	refReplicas    = 4
	initialBalance = 1_000_000
	// seedWindow bounds the create transactions in flight while seeding.
	// Each reply reaches the client from f+1 replicas, so an unbounded
	// burst of 8192 creates would overrun the client's inbox.
	seedWindow = 512
	// replyTimeout bounds the wait for any single submitted transaction.
	// It sits above the client's 15 s begin-retransmission interval, so
	// a transaction whose reply was lost still completes.
	replyTimeout = 40 * time.Second
)

// probe is the benchmark's view of the transport: every replica and the
// client send and receive through a probeTransport sharing one probe.
// Timing runs only while on is set (the traced phases); the counters and
// histograms are lock-free, so the probe adds no lock to the send path.
type probe struct {
	on      atomic.Bool
	frames  atomic.Uint64
	bytes   atomic.Uint64
	reg     *obs.Registry
	send    *obs.Histogram
	deliver *obs.Histogram
}

func newProbe() *probe {
	reg := obs.NewRegistry()
	return &probe{reg: reg, send: reg.Histogram("send"), deliver: reg.Histogram("deliver")}
}

// probeTransport wraps transport.Transport, the interface StartLiveNode
// and StartLiveClient take, to count and time the stack's own calls.
type probeTransport struct {
	inner transport.Transport
	p     *probe
}

func (t probeTransport) Send(m simnet.Message) error {
	if !t.p.on.Load() {
		return t.inner.Send(m)
	}
	start := time.Now()
	err := t.inner.Send(m)
	t.p.send.Observe(int64(time.Since(start)))
	t.p.frames.Add(1)
	t.p.bytes.Add(uint64(m.Size))
	return err
}

// RegisterHandler times each inbound frame's hand-off into the node:
// interception, pre-verification and the push into the engine inbox.
func (t probeTransport) RegisterHandler(id simnet.NodeID, h transport.Handler) {
	t.inner.RegisterHandler(id, func(m simnet.Message) {
		if !t.p.on.Load() {
			h(m)
			return
		}
		start := time.Now()
		h(m)
		t.p.deliver.Observe(int64(time.Since(start)))
	})
}

func (t probeTransport) Close() error { return t.inner.Close() }

// cluster is one running in-process deployment.
type cluster struct {
	cfg      *core.ClusterConfig
	nodes    []*core.LiveNode
	tcps     []*transport.TCP
	client   *core.LiveClient
	dataDir  string
	accounts [][]string // per shard, seeded account names in a fixed order
}

// accountNames returns perShard account names for each shard, in a
// fixed order that does not depend on the seed.
func accountNames(perShard int) [][]string {
	per := make([][]string, shardCount)
	for i := 0; ; i++ {
		acc := "acc" + strconv.Itoa(i)
		s := core.ShardOfKey(acc, shardCount)
		if len(per[s]) < perShard {
			per[s] = append(per[s], acc)
		}
		full := true
		for _, accs := range per {
			full = full && len(accs) == perShard
		}
		if full {
			return per
		}
	}
}

// startCluster raises the deployment with its durable state under
// dataDir. On error everything already started is stopped.
func startCluster(dataDir string, p *probe) (*cluster, error) {
	cfg := &core.ClusterConfig{
		Seed:           7,
		Variant:        "ahl+",
		BatchTimeoutMs: 20,
		DataDir:        dataDir,
		Fsync:          "interval",
	}
	listeners := make(map[simnet.NodeID]net.Listener)
	cl := &cluster{cfg: cfg, dataDir: dataDir}
	closeListeners := func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}
	addNode := func() (core.NodeAddr, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return core.NodeAddr{}, fmt.Errorf("listen: %w", err)
		}
		id := len(listeners)
		listeners[simnet.NodeID(id)] = ln
		return core.NodeAddr{ID: id, Addr: ln.Addr().String()}, nil
	}
	committee := func(n int) ([]core.NodeAddr, error) {
		var out []core.NodeAddr
		for i := 0; i < n; i++ {
			a, err := addNode()
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	}
	for s := 0; s < shardCount; s++ {
		c, err := committee(shardReplicas)
		if err != nil {
			closeListeners()
			return nil, err
		}
		cfg.Shards = append(cfg.Shards, c)
	}
	ref, err := committee(refReplicas)
	if err != nil {
		closeListeners()
		return nil, err
	}
	cfg.Reference = ref
	clientAddr, err := committee(1)
	if err != nil {
		closeListeners()
		return nil, err
	}
	cfg.Clients = clientAddr
	if err := cfg.Validate(); err != nil {
		closeListeners()
		return nil, err
	}
	peers := cfg.PeerAddrs()
	newTransport := func(id simnet.NodeID) (probeTransport, error) {
		tcp, err := transport.NewTCP(transport.TCPConfig{
			Listener:    listeners[id],
			Peers:       peers,
			BackoffBase: 50 * time.Millisecond,
		})
		if err != nil {
			return probeTransport{}, err
		}
		delete(listeners, id) // owned by the transport from here on
		cl.tcps = append(cl.tcps, tcp)
		return probeTransport{inner: tcp, p: p}, nil
	}
	clientID := simnet.NodeID(clientAddr[0].ID)
	for id := simnet.NodeID(0); id < clientID; id++ {
		tr, err := newTransport(id)
		if err == nil {
			var n *core.LiveNode
			if n, err = core.StartLiveNode(cfg, id, tr); err == nil {
				cl.nodes = append(cl.nodes, n)
				continue
			}
		}
		closeListeners()
		cl.stop()
		return nil, fmt.Errorf("start node %d: %w", id, err)
	}
	tr, err := newTransport(clientID)
	if err == nil {
		cl.client, err = core.StartLiveClient(cfg, clientID, tr)
	}
	if err != nil {
		closeListeners()
		cl.stop()
		return nil, fmt.Errorf("start client: %w", err)
	}
	return cl, nil
}

// stop halts every node and transport and removes the durable state.
func (cl *cluster) stop() error {
	if cl.client != nil {
		cl.client.Stop()
	}
	var first error
	for _, n := range cl.nodes {
		if err := n.Stop(); err != nil && first == nil {
			first = err
		}
	}
	for _, tcp := range cl.tcps {
		tcp.Close()
	}
	if err := os.RemoveAll(cl.dataDir); err != nil && first == nil {
		first = err
	}
	return first
}

// seed creates perShard accounts on each shard with initialBalance in
// checking and nothing in savings, through consensus like any other
// transaction.
func (cl *cluster) seed(perShard int) error {
	cl.accounts = accountNames(perShard)
	done := make(chan txn.Result, seedWindow)
	inFlight, total := 0, 0
	wait := func() error {
		select {
		case r := <-done:
			inFlight--
			if !r.Committed {
				return fmt.Errorf("seeding transaction %s was not committed", r.TxID)
			}
			return nil
		case <-time.After(replyTimeout):
			return fmt.Errorf("seeding: no reply within %v (%d of %d outstanding)", replyTimeout, inFlight, total)
		}
	}
	for s, accs := range cl.accounts {
		for _, acc := range accs {
			for inFlight >= seedWindow {
				if err := wait(); err != nil {
					return err
				}
			}
			tx := chain.Tx{
				ID:        cl.client.NextTxID(),
				Chaincode: "smallbank-sharded",
				Fn:        "create",
				Args:      []string{acc, strconv.Itoa(initialBalance), "0"},
			}
			if err := cl.client.SubmitSingle(s, tx, func(r txn.Result) { done <- r }); err != nil {
				return err
			}
			inFlight++
			total++
		}
	}
	for inFlight > 0 {
		if err := wait(); err != nil {
			return err
		}
	}
	return nil
}

// seeded is the number of accounts seed created.
func (cl *cluster) seeded() int { return shardCount * len(cl.accounts[0]) }

// tcpCounts sums the transports' drop and reconnect counters.
func (cl *cluster) tcpCounts() tcpCounts {
	var sum tcpCounts
	for _, tcp := range cl.tcps {
		st := tcp.Stats()
		sum.dropped += st.Dropped
		sum.reconnects += st.Reconnects
	}
	return sum
}

// setupCluster starts a cluster in a fresh directory under root and seeds
// it, returning the time both took.
func setupCluster(root string, k, perShard int, p *probe) (*cluster, time.Duration, error) {
	dir := filepath.Join(root, fmt.Sprintf("data-%d-%d", os.Getpid(), k))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cl, err := startCluster(dir, p)
	if err != nil {
		return nil, 0, err
	}
	if err := cl.seed(perShard); err != nil {
		cl.stop()
		return nil, 0, err
	}
	return cl, time.Since(start), nil
}
