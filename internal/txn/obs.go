package txn

import "repro/internal/obs"

// txnMetrics holds one manager's resolved observability handles plus
// the per-transaction obs-clock timestamps the 2PC stage-duration
// histograms subtract. nil when the replica carries no obs.Hub.
type txnMetrics struct {
	hub  *obs.Hub
	node uint32

	prepareWait   *obs.Histogram // prepare inject -> prepare executed (consensus + lock wait)
	lockHold      *obs.Histogram // prepare executed -> phase-2 executed (2PL hold time)
	decideWait    *obs.Histogram // decide inject -> phase-2 executed
	commitLatency *obs.Histogram // coordinator: begin executed -> decision announced

	commits       *obs.Counter // coordinator decisions, by outcome
	aborts        *obs.Counter
	retryPrepares *obs.Counter // PrepareTx retransmissions
	retryVotes    *obs.Counter // vote retransmissions

	// danglingLocks moves with len(open) on every change, so a scrape
	// reads the current count of transactions holding 2PL state. Managers
	// sharing a hub (a simulated system) add into one sum.
	danglingLocks *obs.Gauge
	// open holds the txids with a prepare step injected here and phase 2
	// not yet executed: the set DanglingLocks lists.
	open map[string]bool

	// Stage timestamps keyed by distributed-txn id, deleted as soon as
	// the closing stage observes them (and when the txn finishes).
	prepInjAt  map[string]int64
	prepExecAt map[string]int64
	decInjAt   map[string]int64
	beginAt    map[string]int64
}

func newTxnMetrics(hub *obs.Hub, node uint32) *txnMetrics {
	reg := hub.Reg
	return &txnMetrics{
		hub:  hub,
		node: node,

		prepareWait:   reg.Histogram("txn_2pc_prepare_wait"),
		lockHold:      reg.Histogram("txn_2pc_lock_hold"),
		decideWait:    reg.Histogram("txn_2pc_decide_wait"),
		commitLatency: reg.Histogram("txn_2pc_commit_latency"),

		commits:       reg.Counter("txn_2pc_commit_total"),
		aborts:        reg.Counter("txn_2pc_abort_total"),
		retryPrepares: reg.Counter("txn_2pc_retry_prepare_total"),
		retryVotes:    reg.Counter("txn_2pc_retry_vote_total"),

		danglingLocks: reg.Gauge("txn_dangling_locks"),
		open:          make(map[string]bool),

		prepInjAt:  make(map[string]int64),
		prepExecAt: make(map[string]int64),
		decInjAt:   make(map[string]int64),
		beginAt:    make(map[string]int64),
	}
}

// boolArg encodes an outcome flag into a trace event's Arg field.
func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// forget drops every stage timestamp for txid (the txn reached a
// terminal state here).
func (t *txnMetrics) forget(txid string) {
	delete(t.prepInjAt, txid)
	delete(t.prepExecAt, txid)
	delete(t.decInjAt, txid)
	delete(t.beginAt, txid)
}

// enableObs wires the manager's instrumentation off the replica's hub.
// Called from NewManager, so every construction site — sim systems and
// live nodes alike — is instrumented exactly when its replica is.
func (m *Manager) enableObs() {
	hub := m.replica.ObsHub()
	if hub == nil {
		return
	}
	m.met = newTxnMetrics(hub, uint32(m.ep.ID()))
}

// obsPrepared notes a prepare step injected for txid: unless phase 2
// already executed here, the transaction now holds (or is acquiring) 2PL
// state.
func (m *Manager) obsPrepared(txid string) {
	if m.met == nil || m.done[txid] || m.met.open[txid] {
		return
	}
	m.met.open[txid] = true
	m.met.danglingLocks.Add(1)
}

// obsFinished notes that txid's phase 2 executed here, releasing its 2PL
// state.
func (m *Manager) obsFinished(txid string) {
	if m.met == nil || !m.met.open[txid] {
		return
	}
	delete(m.met.open, txid)
	m.met.danglingLocks.Add(-1)
}

// obsRecount rebuilds the open set from the manager's maps after boot
// recovery restored them without passing through inject.
func (m *Manager) obsRecount() {
	if m.met == nil {
		return
	}
	before := len(m.met.open)
	clear(m.met.open)
	for _, txid := range m.DanglingLocks() {
		m.met.open[txid] = true
	}
	m.met.danglingLocks.Add(int64(len(m.met.open) - before))
}
