package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// NodeID identifies an endpoint on the network. IDs are small dense
// integers assigned by the harness; ID 0 is valid.
type NodeID int

// Class partitions traffic for queue management, mirroring the message
// metadata Hyperledger uses to route messages to channels.
type Class uint8

const (
	// ClassRequest is client request traffic.
	ClassRequest Class = iota
	// ClassConsensus is consensus protocol traffic.
	ClassConsensus
	numClasses
)

// Valid reports whether c names a real traffic class. Wire decoders use
// it to reject frames whose class byte would index past the endpoints'
// fixed per-class queue arrays.
func (c Class) Valid() bool { return c < numClasses }

func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassConsensus:
		return "consensus"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Message is a network message. Payload is an arbitrary protocol-defined
// value; Size is the serialized size in bytes used for transmission-time
// modelling.
type Message struct {
	From, To NodeID
	Class    Class
	Type     string
	Payload  any
	Size     int
	// Verified marks the payload's attestation as already checked by a
	// transport-side pre-verifier (live runtime only). It is local
	// receive-path state: the wire codec neither encodes nor decodes it,
	// and the simulator never sets it.
	Verified bool
}

// Handler processes messages delivered to an endpoint. Cost reports the CPU
// service time required to process m (signature verifications, execution,
// enclave calls); Handle is invoked once that time has elapsed on the
// node's serial CPU.
type Handler interface {
	Cost(m Message) time.Duration
	Handle(m Message)
}

// HandlerFunc adapts a pair of functions to Handler.
type HandlerFunc struct {
	CostFn   func(m Message) time.Duration
	HandleFn func(m Message)
}

// Cost implements Handler.
func (h HandlerFunc) Cost(m Message) time.Duration {
	if h.CostFn == nil {
		return 0
	}
	return h.CostFn(m)
}

// Handle implements Handler.
func (h HandlerFunc) Handle(m Message) { h.HandleFn(m) }

// Filter lets a test or adversary intercept traffic. It returns the extra
// delay to impose and whether to deliver at all.
type Filter func(m Message) (extra time.Duration, deliver bool)

// FaultAction is a fault hook's verdict on one routed message.
type FaultAction struct {
	// Drop discards the message entirely.
	Drop bool
	// Delay is added on top of the modelled link latency.
	Delay time.Duration
	// Duplicates delivers that many extra copies of the message, each with
	// its own independently sampled link latency (modelling retransmit
	// duplication at the transport layer).
	Duplicates int
}

// FaultHook observes every routed message and decides its fate. It is the
// per-link injection point the internal/faults subsystem plugs into;
// distinct from Filter so adversarial tests and fault injection compose.
// A nil hook costs one predictable branch on the routing hot path.
type FaultHook interface {
	OnMessage(m Message) FaultAction
}

// QueueConfig configures an endpoint's inbound queues.
type QueueConfig struct {
	// Split selects the AHL+ optimization-1 layout: one queue per Class.
	// When false, all classes share a single FIFO (Hyperledger v0.6).
	Split bool
	// SharedCap is the shared queue capacity when Split is false.
	SharedCap int
	// RequestCap and ConsensusCap are the per-class capacities when Split
	// is true.
	RequestCap   int
	ConsensusCap int
}

// DefaultSharedQueue mirrors the stock Hyperledger configuration: one
// bounded buffer for everything, so request floods evict consensus traffic
// once the CPU falls behind.
func DefaultSharedQueue() QueueConfig { return QueueConfig{SharedCap: 4096} }

// DefaultSplitQueue mirrors AHL+ optimization 1: request pressure can no
// longer displace consensus messages.
func DefaultSplitQueue() QueueConfig {
	return QueueConfig{Split: true, RequestCap: 4096, ConsensusCap: 16384}
}

// msgRing is a FIFO ring buffer of messages. Endpoints queue through rings
// rather than slices so steady-state delivery performs no per-message
// allocation or slice-shift copying; the buffer grows to peak depth once.
type msgRing struct {
	buf  []Message
	head int
	size int
}

func (r *msgRing) len() int { return r.size }

func (r *msgRing) push(m Message) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = m
	r.size++
}

func (r *msgRing) pop() Message {
	m := r.buf[r.head]
	r.buf[r.head] = Message{} // release payload reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return m
}

// grow doubles the (power-of-two) capacity, re-linearizing the contents.
func (r *msgRing) grow() {
	cap2 := len(r.buf) * 2
	if cap2 == 0 {
		cap2 = 16
	}
	buf := make([]Message, cap2)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// clear drops all queued messages, releasing payload references.
func (r *msgRing) clear() {
	for i := 0; i < r.size; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = Message{}
	}
	r.head, r.size = 0, 0
}

// EndpointStats counts an endpoint's traffic.
type EndpointStats struct {
	Sent      int
	Delivered int
	Dropped   [numClasses]int
}

// DroppedByClass returns the drop count for class c.
func (s EndpointStats) DroppedByClass(c Class) int { return s.Dropped[c] }

// Endpoint is a node's attachment to the network.
type Endpoint struct {
	id      NodeID
	net     *Network
	cpu     *sim.CPU
	handler Handler
	cfg     QueueConfig
	queues  [numClasses]msgRing
	// inflight is the message currently occupying the CPU (valid while
	// busy); holding it here instead of in a closure keeps the dispatch
	// path allocation-free.
	inflight Message
	busy     bool
	down     bool
	stats    EndpointStats
	// downFns are notified whenever the crashed state flips; protocol
	// layers use them to quiesce timers on crash and resume on recovery.
	downFns []func(down bool)
}

// ID returns the endpoint's node ID.
func (ep *Endpoint) ID() NodeID { return ep.id }

// CPU returns the node's serial processor, shared with non-network work
// such as block execution.
func (ep *Endpoint) CPU() *sim.CPU { return ep.cpu }

// Stats returns a snapshot of traffic counters.
func (ep *Endpoint) Stats() EndpointStats { return ep.stats }

// Handler returns the currently installed message handler (nil before
// SetHandler). Layers that wrap an endpoint's handler — the txn manager,
// the query service — use it to capture the inner handler they delegate
// non-matching messages to.
func (ep *Endpoint) Handler() Handler { return ep.handler }

// SetHandler installs the message handler. It must be set before any
// message arrives.
func (ep *Endpoint) SetHandler(h Handler) { ep.handler = h }

// SetDown marks the node crashed (true) or alive (false). A crashed node
// discards arrivals and sends nothing. State transitions notify the
// callbacks registered with OnDownChange; setting the current state again
// is a no-op.
func (ep *Endpoint) SetDown(down bool) {
	if ep.down == down {
		return
	}
	ep.down = down
	if down {
		for c := range ep.queues {
			ep.queues[c].clear()
		}
	}
	for _, fn := range ep.downFns {
		fn(down)
	}
}

// OnDownChange registers fn to run whenever the endpoint's crashed state
// flips (fn's argument is the new state). Callbacks run synchronously in
// registration order inside SetDown, so layered protocols (replica, then
// the transaction manager wrapping it) observe transitions in a
// deterministic order.
func (ep *Endpoint) OnDownChange(fn func(down bool)) {
	ep.downFns = append(ep.downFns, fn)
}

// Down reports whether the node is crashed.
func (ep *Endpoint) Down() bool { return ep.down }

// Send transmits m from this endpoint. The From field is stamped here.
func (ep *Endpoint) Send(m Message) {
	if ep.down {
		return
	}
	m.From = ep.id
	ep.stats.Sent++
	ep.net.route(m)
}

// Broadcast sends m to every other endpoint on the network.
func (ep *Endpoint) Broadcast(m Message) {
	for _, other := range ep.net.order {
		if other != ep.id {
			m2 := m
			m2.To = other
			ep.Send(m2)
		}
	}
}

func (ep *Endpoint) capOf(c Class) int {
	if ep.cfg.Split {
		if c == ClassConsensus {
			return ep.cfg.ConsensusCap
		}
		return ep.cfg.RequestCap
	}
	return ep.cfg.SharedCap
}

func (ep *Endpoint) queuedTotal() int {
	if ep.cfg.Split {
		return -1 // not used in split mode
	}
	t := 0
	for c := range ep.queues {
		t += ep.queues[c].len()
	}
	return t
}

// arrive is called by the network when a message reaches this endpoint.
func (ep *Endpoint) arrive(m Message) {
	if ep.down {
		return
	}
	full := false
	if ep.cfg.Split {
		full = ep.queues[m.Class].len() >= ep.capOf(m.Class)
	} else {
		full = ep.queuedTotal() >= ep.cfg.SharedCap
	}
	if full {
		ep.stats.Dropped[m.Class]++
		return
	}
	ep.queues[m.Class].push(m)
	ep.dispatch()
}

// dispatch pulls the next message through the CPU, alternating between the
// two classes when both have work. The point of the split-queue
// optimization is isolation — a request flood can no longer *evict*
// consensus messages — not starvation of either class, so service stays
// fair in both layouts; what differs is whether a full request buffer can
// cause consensus drops (shared) or not (split).
func (ep *Endpoint) dispatch() {
	if ep.busy || ep.down {
		return
	}
	var m Message
	switch {
	case ep.queues[ClassConsensus].len() > 0 && (ep.queues[ClassRequest].len() == 0 || ep.stats.Delivered%2 == 0):
		m = ep.queues[ClassConsensus].pop()
	case ep.queues[ClassRequest].len() > 0:
		m = ep.queues[ClassRequest].pop()
	default:
		return
	}
	ep.busy = true
	ep.inflight = m
	cost := ep.handler.Cost(m)
	ep.cpu.ExecArg(cost, endpointServe, ep)
}

// endpointServe completes CPU service of the endpoint's in-flight message.
// It is a static callback (see sim.Engine.ScheduleArg): the in-flight
// message rides on the endpoint itself, so no closure is allocated per
// delivered message.
func endpointServe(x any) {
	ep := x.(*Endpoint)
	m := ep.inflight
	ep.inflight = Message{}
	ep.busy = false
	if !ep.down {
		ep.stats.Delivered++
		ep.handler.Handle(m)
	}
	ep.dispatch()
}

// Gateway carries messages addressed to nodes that are not attached to
// this network. It is how a live node's local simnet (holding only that
// node's endpoint) bridges onto a real transport: route hands the gateway
// every remote-bound message instead of panicking on the unknown
// destination. Inject is the inbound counterpart.
type Gateway func(m Message)

// Network connects endpoints through a latency model.
type Network struct {
	engine  *sim.Engine
	latency LatencyModel
	eps     map[NodeID]*Endpoint
	order   []NodeID
	filter  Filter
	faults  FaultHook
	gateway Gateway
	rng     *rand.Rand
	dpool   []*delivery // recycled in-flight delivery records

	// Messages and Bytes count all routed traffic.
	Messages int
	Bytes    int
}

// delivery is a message in flight between route and arrival. Records are
// pooled on the Network so routing performs no per-message allocation.
type delivery struct {
	net *Network
	dst *Endpoint
	m   Message
}

// deliverPooled is the static arrival callback: it returns the record to
// the pool before invoking arrive, so synchronous re-sends triggered by the
// handler can reuse it.
func deliverPooled(x any) {
	d := x.(*delivery)
	n, dst, m := d.net, d.dst, d.m
	d.dst, d.m = nil, Message{}
	n.dpool = append(n.dpool, d)
	dst.arrive(m)
}

// New creates a network on engine with the given latency model.
func New(engine *sim.Engine, latency LatencyModel) *Network {
	return &Network{
		engine:  engine,
		latency: latency,
		eps:     make(map[NodeID]*Endpoint),
		rng:     rand.New(rand.NewSource(engine.Rand().Int63())),
	}
}

// Engine returns the underlying simulation engine.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Latency returns the network's latency model.
func (n *Network) Latency() LatencyModel { return n.latency }

// SetFilter installs an adversarial traffic filter (nil to clear).
func (n *Network) SetFilter(f Filter) { n.filter = f }

// SetFaults installs a fault-injection hook (nil to clear). The hook runs
// after the filter, so a message must survive both to be delivered.
func (n *Network) SetFaults(h FaultHook) { n.faults = h }

// SetGateway installs the off-network forwarder (nil to clear). With a
// gateway installed, sends to unattached node ids are handed to it instead
// of panicking; filter and fault hooks do not apply to forwarded traffic
// (fault injection models the simulated links, not the real ones).
func (n *Network) SetGateway(gw Gateway) { n.gateway = gw }

// Inject schedules delivery of m to its locally attached destination as if
// it had just arrived off the wire: no latency model, filter, or fault
// hook applies. It is the inbound half of the gateway bridge and must be
// called from the engine's goroutine. Messages for unknown destinations
// are dropped (a live peer may legitimately hold a stale topology).
func (n *Network) Inject(m Message) {
	dst, ok := n.eps[m.To]
	if !ok {
		return
	}
	n.Messages++
	n.Bytes += m.Size
	var d *delivery
	if k := len(n.dpool); k > 0 {
		d = n.dpool[k-1]
		n.dpool = n.dpool[:k-1]
	} else {
		d = &delivery{net: n}
	}
	d.dst, d.m = dst, m
	n.engine.ScheduleArg(0, deliverPooled, d)
}

// Attach creates an endpoint for id with the given queue layout.
func (n *Network) Attach(id NodeID, cfg QueueConfig) *Endpoint {
	if _, dup := n.eps[id]; dup {
		panic(fmt.Sprintf("simnet: duplicate endpoint %d", id))
	}
	ep := &Endpoint{id: id, net: n, cpu: sim.NewCPU(n.engine), cfg: cfg}
	n.eps[id] = ep
	n.order = append(n.order, id)
	return ep
}

// Endpoint returns the endpoint for id, or nil.
func (n *Network) Endpoint(id NodeID) *Endpoint { return n.eps[id] }

// NodeIDs returns all attached node IDs in attach order.
func (n *Network) NodeIDs() []NodeID { return append([]NodeID(nil), n.order...) }

func (n *Network) route(m Message) {
	dst, ok := n.eps[m.To]
	if !ok {
		if n.gateway != nil {
			n.Messages++
			n.Bytes += m.Size
			n.gateway(m)
			return
		}
		panic(fmt.Sprintf("simnet: send to unknown node %d", m.To))
	}
	extra := time.Duration(0)
	if n.filter != nil {
		var deliver bool
		extra, deliver = n.filter(m)
		if !deliver {
			return
		}
	}
	copies := 1
	if n.faults != nil {
		act := n.faults.OnMessage(m)
		if act.Drop {
			return
		}
		extra += act.Delay
		copies += act.Duplicates
	}
	for i := 0; i < copies; i++ {
		n.Messages++
		n.Bytes += m.Size
		delay := n.latency.Delay(m.From, m.To, m.Size, n.rng) + extra
		var d *delivery
		if k := len(n.dpool); k > 0 {
			d = n.dpool[k-1]
			n.dpool = n.dpool[:k-1]
		} else {
			d = &delivery{net: n}
		}
		d.dst, d.m = dst, m
		n.engine.ScheduleArg(delay, deliverPooled, d)
	}
}
