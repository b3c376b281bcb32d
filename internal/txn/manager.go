package txn

import (
	"strconv"
	"time"

	"repro/internal/chain"
	"repro/internal/consensus"
	"repro/internal/consensus/pbft"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/wire"
)

// The transaction manager is the glue of Figure 5: it runs on every
// replica (of the reference committee and of each tx-committee), watches
// its replica's executed blocks, and drives the committee-to-committee
// message flow. Because individual nodes can be Byzantine, a manager acts
// on a cross-committee message only after receiving matching copies from
// f+1 distinct members of the sending committee — at least one of which is
// honest.
//
// Flow (paper §6.2):
//
//  1. Client sends a refcom `begin` request to R.
//  2. When an R replica executes the begin, its manager sends PrepareTx to
//     every node of every involved tx-committee (phase 1a).
//  3. A tx-committee replica that has f_R+1 matching PrepareTx messages
//     injects the prepare invocation into its shard's consensus; executing
//     it acquires the 2PL locks. Its manager then reports PrepareOK or
//     PrepareNotOK to every R node (phase 1b).
//  4. An R replica with f_shard+1 matching votes injects a refcom `vote`;
//     the replicated state machine decrements c / aborts (Figure 6).
//  5. When the state machine reaches Committed or Aborted, R managers send
//     CommitTx/AbortTx to the tx-committees (phase 2), which inject the
//     commit/abort invocation, applying or discarding the staged writes
//     and releasing locks. The client is notified of the outcome.

// Message types.
const (
	MsgPrepare = "txn/prepare" // R -> shard: PrepareTx (carries the DTx)
	MsgVote    = "txn/vote"    // shard -> R: PrepareOK / PrepareNotOK
	MsgDecide  = "txn/decide"  // R -> shard: CommitTx / AbortTx
	MsgOutcome = "txn/outcome" // R -> client
	MsgStatus  = "txn/status"  // client -> R: outcome query (crash recovery)
)

type prepareMsg struct {
	TxID string
	DTx  string // encoded DTx
}

type voteNetMsg struct {
	TxID  string
	Shard int
	OK    bool
}

type decideMsg struct {
	TxID   string
	Commit bool
}

// statusQueryMsg asks a reference replica for a transaction's outcome.
// Clients send it while retrying a begin: outcome notifications are sent
// once per replica, so a client that missed them (crashed coordinator
// target, dropped outcome messages) needs a way to re-learn the decision.
type statusQueryMsg struct {
	TxID string
}

// OutcomeMsg notifies the client of a transaction's fate.
type OutcomeMsg struct {
	TxID      string
	Committed bool
}

// Topology describes the deployment the managers operate in.
type Topology struct {
	// RefNodes are the reference committee members; RefF its tolerance.
	// When RefGroups is set these describe group 0 and are kept for the
	// common single-instance deployment.
	RefNodes []simnet.NodeID
	RefF     int
	// RefGroups optionally runs multiple reference committee instances in
	// parallel (§6.2 scale-out); RefGroupFs are the per-group tolerances.
	// Each distributed transaction is coordinated by exactly one group
	// (see GroupForTx).
	RefGroups  [][]simnet.NodeID
	RefGroupFs []int
	// ShardNodes[i] are shard i's committee members; ShardF[i] its
	// tolerance.
	ShardNodes [][]simnet.NodeID
	ShardF     []int
}

func (t Topology) isRefNode(id simnet.NodeID) bool {
	for g := 0; g < t.NumRefGroups(); g++ {
		if t.isRefGroupNode(g, id) {
			return true
		}
	}
	return false
}

func (t Topology) isShardNode(shard int, id simnet.NodeID) bool {
	if shard < 0 || shard >= len(t.ShardNodes) {
		return false
	}
	for _, n := range t.ShardNodes[shard] {
		if n == id {
			return true
		}
	}
	return false
}

// Role selects the manager's behavior.
type Role int

// Manager roles.
const (
	RoleReference Role = iota
	RoleShard
)

// Manager wraps one replica's endpoint handler with the Figure 5 logic.
// For RoleShard managers, shardID is the shard the replica serves; for
// RoleReference managers it is the reference group index the replica
// belongs to (0 in single-instance deployments).
type Manager struct {
	role    Role
	shardID int
	topo    Topology
	replica *pbft.Replica
	ep      *simnet.Endpoint
	inner   simnet.Handler

	// Shard-side quorum buffers.
	prepareFrom map[string]map[simnet.NodeID]bool
	prepareDTx  map[string]DTx
	decideFrom  map[string]map[simnet.NodeID]bool // key txid+"/"+decision
	decided     map[string]bool                   // quorum-backed decision (txid -> commit)
	decideInj   map[string]bool                   // decide invocation injected into consensus
	injectedTx  map[uint64]kindRef                // chain tx id -> protocol step
	voted       map[string]*voteNetMsg            // my vote, until the decide executes
	voteRetry   map[string]*retrySched            // vote retransmission schedule
	done        map[string]bool                   // phase 2 executed here

	// Reference-side quorum buffers.
	voteFrom  map[string]map[simnet.NodeID]bool // key txid/shard/ok
	announced map[string]bool                   // decided txids already broadcast
	// pending tracks the transactions this replica coordinates that are
	// still undecided, with their retransmission schedule; the retry timer
	// rebroadcasts PrepareTx for entries whose next retry time has come.
	pending map[string]*retrySched
	retry   *retryTimer

	// Durability (see durable.go); nil/empty in the simulator.
	durable      storage.Backend
	injectedBody map[uint64]chain.Tx // injected-step bodies for resubmission

	// Observability (see obs.go); nil when the replica has no obs.Hub.
	met *txnMetrics
}

// retrySched is one transaction's retransmission state under bounded
// exponential backoff.
type retrySched struct {
	next     sim.Time // earliest time the next retransmission may go out
	attempts int      // retransmissions performed so far
}

// boundedBackoff returns base doubled per attempt, capped at max — the
// shared retransmission backoff for managers and client gateways.
func boundedBackoff(base, max time.Duration, attempts int) time.Duration {
	d := base
	for i := 0; i < attempts && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// retryInterval is the paper's partial-synchrony loop ("messages sent
// repeatedly with a finite time-out will eventually be received", §3.3)
// made concrete. Both sides retransmit only for transactions stuck longer
// than this, so a healthy run pays nothing:
//
//   - reference replicas rebroadcast PrepareTx for undecided transactions
//     (lost prepares; a shard that already voted answers a duplicate
//     prepare by re-sending its vote);
//   - shard replicas re-send their vote while phase 2 has not executed
//     (lost votes — and lost decisions, because a reference replica
//     answers a vote for a decided transaction by re-sending the
//     decision).
//
// Each retransmission doubles a transaction's next interval up to
// maxRetryInterval. Without the cap-bounded backoff, a transaction whose
// counterparty is dead or partitioned away would be retransmitted at the
// full 1/retryInterval rate forever — a retry storm growing linearly with
// stuck transactions; with it, a stuck transaction costs O(log) messages
// to reach the cap and one message per maxRetryInterval thereafter, while
// liveness under partial synchrony is preserved (retries never stop).
const retryInterval = 10 * time.Second

// maxRetryInterval caps the exponential retransmission backoff.
const maxRetryInterval = 160 * time.Second

// retryBackoff returns the interval to wait after the given number of
// retransmissions: retryInterval doubled per attempt, capped.
func retryBackoff(attempts int) time.Duration {
	return boundedBackoff(retryInterval, maxRetryInterval, attempts)
}

type kindRef struct {
	txid string
	kind string // "prepare" | "commit" | "abort"
}

// NewManager wraps replica (which must already be attached as its
// endpoint's handler). role/shardID identify the committee it serves.
func NewManager(role Role, shardID int, topo Topology, replica *pbft.Replica) *Manager {
	m := &Manager{
		role:        role,
		shardID:     shardID,
		topo:        topo,
		replica:     replica,
		ep:          replica.Endpoint(),
		inner:       replica,
		prepareFrom: make(map[string]map[simnet.NodeID]bool),
		prepareDTx:  make(map[string]DTx),
		decideFrom:  make(map[string]map[simnet.NodeID]bool),
		decided:     make(map[string]bool),
		decideInj:   make(map[string]bool),
		injectedTx:  make(map[uint64]kindRef),
		voted:       make(map[string]*voteNetMsg),
		voteRetry:   make(map[string]*retrySched),
		done:        make(map[string]bool),
		voteFrom:    make(map[string]map[simnet.NodeID]bool),
		announced:   make(map[string]bool),
		pending:     make(map[string]*retrySched),
	}
	m.retry = newRetryTimer(replica.Engine(), m.retryTick)
	m.enableObs()
	m.ep.SetHandler(m)
	m.ep.OnDownChange(m.onDownChange)
	replica.OnExecute(m.onExecute)
	return m
}

// onDownChange quiesces the retransmission loop while the replica is
// crashed (its sends would be discarded anyway) and resumes it on
// recovery.
func (m *Manager) onDownChange(down bool) {
	if down {
		m.retry.stop()
		return
	}
	m.armRetry()
}

// Cost implements simnet.Handler.
func (m *Manager) Cost(msg simnet.Message) time.Duration {
	switch msg.Type {
	case MsgPrepare, MsgVote, MsgDecide:
		return 100 * time.Microsecond
	case MsgStatus:
		return 10 * time.Microsecond
	default:
		return m.inner.Cost(msg)
	}
}

// Handle implements simnet.Handler.
func (m *Manager) Handle(msg simnet.Message) {
	switch msg.Type {
	case MsgPrepare:
		m.handlePrepare(msg)
	case MsgVote:
		m.handleVote(msg)
	case MsgDecide:
		m.handleDecide(msg)
	case MsgStatus:
		m.handleStatus(msg)
	default:
		m.inner.Handle(msg)
	}
}

// handleStatus answers a client's outcome query for a decided
// transaction; undecided queries are silently ignored (the client keeps
// retrying under backoff).
func (m *Manager) handleStatus(msg simnet.Message) {
	if m.role != RoleReference {
		return
	}
	q := msg.Payload.(*statusQueryMsg)
	if m.topo.GroupForTx(q.TxID) != m.shardID {
		return
	}
	status := StatusOf(m.replica.Store(), q.TxID)
	if !status.Terminal() {
		return
	}
	out := OutcomeMsg{TxID: q.TxID, Committed: status == StatusCommitted}
	m.ep.Send(simnet.Message{To: msg.From, Class: simnet.ClassConsensus,
		Type: MsgOutcome, Payload: out, Size: wire.PayloadSize(MsgOutcome, out)})
}

// --- shard side ---

func (m *Manager) handlePrepare(msg simnet.Message) {
	if m.role != RoleShard {
		return
	}
	p := msg.Payload.(*prepareMsg)
	// Only the transaction's coordinating group may drive it; prepares
	// from any other reference node (or a Byzantine impostor) are ignored.
	group := m.topo.GroupForTx(p.TxID)
	if !m.topo.isRefGroupNode(group, msg.From) {
		return
	}
	_, groupF := m.topo.RefGroup(group)
	from := m.prepareFrom[p.TxID]
	if from == nil {
		from = make(map[simnet.NodeID]bool)
		m.prepareFrom[p.TxID] = from
	}
	if from[msg.From] {
		// A RETRANSMITTED PrepareTx (duplicate sender) for a transaction
		// we already voted on means the coordinator may have missed our
		// vote: resend it. First-time prepares from further senders are
		// the healthy path and need no answer.
		if v := m.voted[p.TxID]; v != nil {
			m.sendVote(v)
		}
		return
	}
	from[msg.From] = true
	if _, known := m.prepareDTx[p.TxID]; !known {
		if d, err := DecodeDTx(p.DTx); err == nil {
			m.prepareDTx[p.TxID] = d
			m.stageWriteDTx(p.TxID, p.DTx)
			// A decide quorum may have formed before we learned the DTx
			// (possible when this replica missed the original prepares):
			// the phase-2 injection was deferred until now.
			m.maybeInjectDecide(p.TxID)
		}
	}
	// Fire at and beyond the quorum: consensus deduplicates the injected
	// transaction by its derived id, so re-triggering on late senders is
	// harmless and re-heals a lost injection.
	if len(from) >= groupF+1 {
		m.injectPrepare(p.TxID)
	}
}

func (m *Manager) injectPrepare(txid string) {
	d, ok := m.prepareDTx[txid]
	if !ok {
		return
	}
	if t := m.met; t != nil {
		if _, seen := t.prepInjAt[txid]; !seen {
			t.prepInjAt[txid] = t.hub.Now()
			t.hub.RecordKey(t.node, obs.Stage2PCPrepare, txid, 0)
		}
	}
	for _, op := range d.Ops {
		if op.Shard != m.shardID {
			continue
		}
		id := DeriveTxID(txid, "prepare", strconv.Itoa(m.shardID), op.Fn)
		m.inject(id, kindRef{txid: txid, kind: "prepare"}, chain.Tx{
			ID: id, Chaincode: d.Chaincode, Fn: op.Fn, Args: op.Args,
		})
	}
}

// inject registers the manager's interest in a protocol step and submits
// it to the shard's consensus. If consensus already executed an identical
// injection from a faster peer — possible when this replica's own copies
// of the triggering messages were delayed past the commit — the missed
// execution callback is replayed instead, so the replica still votes /
// marks phase 2 done. Without this, a replica that executes a step it
// has not yet registered stays silent on it forever (the shard can then
// fall short of its vote quorum and wedge the transaction).
func (m *Manager) inject(id uint64, ref kindRef, tx chain.Tx) {
	if _, dup := m.injectedTx[id]; dup {
		return
	}
	m.injectedTx[id] = ref
	m.stageWriteInjected(id, ref, tx)
	if ref.kind == "prepare" {
		m.obsPrepared(ref.txid)
	}
	if ok, executed := m.replica.ExecutedOK(id); executed {
		m.onShardExecuted(tx, ok)
		return
	}
	m.replica.SubmitLocal(tx)
}

func (m *Manager) handleDecide(msg simnet.Message) {
	if m.role != RoleShard {
		return
	}
	dec := msg.Payload.(*decideMsg)
	group := m.topo.GroupForTx(dec.TxID)
	if !m.topo.isRefGroupNode(group, msg.From) {
		return
	}
	// Phase 2 already executed here: nothing left to do.
	if m.done[dec.TxID] {
		return
	}
	_, groupF := m.topo.RefGroup(group)
	key := dec.TxID + "/" + strconv.FormatBool(dec.Commit)
	from := m.decideFrom[key]
	if from == nil {
		from = make(map[simnet.NodeID]bool)
		m.decideFrom[key] = from
	}
	if from[msg.From] {
		// Retransmitted decide: the injection may have been deferred for a
		// missing DTx that has arrived since — re-attempt it.
		m.maybeInjectDecide(dec.TxID)
		return
	}
	from[msg.From] = true
	if len(from) < groupF+1 {
		return
	}
	if _, known := m.decided[dec.TxID]; !known {
		m.decided[dec.TxID] = dec.Commit
		m.stageWriteDecided(dec.TxID, dec.Commit)
	}
	m.maybeInjectDecide(dec.TxID)
}

// maybeInjectDecide injects the phase-2 commit/abort invocation once (a)
// a quorum-backed decision is known and (b) the transaction description
// is known. Decoupling the two closes a dangling-lock window the fault
// injector surfaced: if every decide arrives before the DTx (all its
// senders then being duplicate-filtered), a manager that gated injection
// on the DTx being present at quorum time would drop phase 2 on the
// floor, leaving the shard's 2PL locks held forever.
func (m *Manager) maybeInjectDecide(txid string) {
	commit, ok := m.decided[txid]
	if !ok || m.done[txid] || m.decideInj[txid] {
		return
	}
	d, ok := m.prepareDTx[txid]
	if !ok {
		return
	}
	m.decideInj[txid] = true
	if t := m.met; t != nil {
		t.decInjAt[txid] = t.hub.Now()
		t.hub.RecordKey(t.node, obs.Stage2PCDecide, txid, 0)
	}
	fn, kind := d.CommitFn, "commit"
	if !commit {
		fn, kind = d.AbortFn, "abort"
	}
	id := DeriveTxID(txid, kind, strconv.Itoa(m.shardID))
	m.inject(id, kindRef{txid: txid, kind: kind}, chain.Tx{
		ID: id, Chaincode: d.Chaincode, Fn: fn, Args: []string{txid},
	})
}

// --- reference side ---

func (m *Manager) handleVote(msg simnet.Message) {
	if m.role != RoleReference {
		return
	}
	v := msg.Payload.(*voteNetMsg)
	if !m.topo.isShardNode(v.Shard, msg.From) {
		return
	}
	// Votes for transactions coordinated by another group are not ours to
	// count.
	if m.topo.GroupForTx(v.TxID) != m.shardID {
		return
	}
	key := v.TxID + "/" + strconv.Itoa(v.Shard) + "/" + strconv.FormatBool(v.OK)
	from := m.voteFrom[key]
	if from == nil {
		from = make(map[simnet.NodeID]bool)
		m.voteFrom[key] = from
	}
	if from[msg.From] {
		// A RETRANSMITTED vote (duplicate sender) for an already-decided
		// transaction means that shard may have missed the decision:
		// resend it. Late first-time votes are the healthy path.
		if m.announced[v.TxID] {
			if status := StatusOf(m.replica.Store(), v.TxID); status.Terminal() {
				dec := &decideMsg{TxID: v.TxID, Commit: status == StatusCommitted}
				size := wire.PayloadSize(MsgDecide, dec)
				for _, node := range m.topo.ShardNodes[v.Shard] {
					m.ep.Send(simnet.Message{To: node, Class: simnet.ClassConsensus,
						Type: MsgDecide, Payload: dec, Size: size})
				}
			}
		}
		return
	}
	from[msg.From] = true
	if len(from) < m.topo.ShardF[v.Shard]+1 {
		return
	}
	okArg := "notok"
	if v.OK {
		okArg = "ok"
	}
	id := DeriveTxID(v.TxID, "vote", strconv.Itoa(v.Shard), okArg)
	m.replica.SubmitLocal(chain.Tx{
		ID: id, Chaincode: "refcom", Fn: "vote",
		Args: []string{v.TxID, strconv.Itoa(v.Shard), okArg},
	})
}

// --- execution watching ---

func (m *Manager) onExecute(ev consensus.BlockEvent) {
	for _, res := range ev.Results {
		switch m.role {
		case RoleReference:
			m.onRefExecuted(res.Tx, res.OK())
		case RoleShard:
			m.onShardExecuted(res.Tx, res.OK())
		}
	}
}

func (m *Manager) onRefExecuted(tx chain.Tx, ok bool) {
	if tx.Chaincode != "refcom" || !ok {
		return
	}
	switch tx.Fn {
	case "begin":
		txid := tx.Args[0]
		// A begin mis-routed to the wrong group (only a faulty client does
		// this) is recorded in our ledger but never driven: the shards
		// would discard our prepares anyway.
		if m.topo.GroupForTx(txid) != m.shardID {
			return
		}
		d, found := DTxOf(m.replica.Store(), txid)
		if !found {
			return
		}
		next := m.replica.Engine().Now().Add(retryInterval)
		m.pending[txid] = &retrySched{next: next}
		if t := m.met; t != nil {
			t.beginAt[txid] = t.hub.Now()
			t.hub.RecordKey(t.node, obs.Stage2PCBegin, txid, int64(len(d.Shards())))
		}
		m.sendPrepares(txid, d)
		m.scheduleRetry(next)
	case "vote":
		txid := tx.Args[0]
		if m.topo.GroupForTx(txid) != m.shardID {
			return
		}
		status := StatusOf(m.replica.Store(), txid)
		if !status.Terminal() || m.announced[txid] {
			return
		}
		m.announced[txid] = true
		delete(m.pending, txid)
		if t := m.met; t != nil {
			committed := status == StatusCommitted
			if committed {
				t.commits.Inc()
			} else {
				t.aborts.Inc()
			}
			if at, seen := t.beginAt[txid]; seen {
				t.commitLatency.Observe(t.hub.Now() - at)
			}
			t.hub.RecordKey(t.node, obs.Stage2PCDone, txid, boolArg(committed))
			t.forget(txid)
		}
		d, found := DTxOf(m.replica.Store(), txid)
		if !found {
			return
		}
		dec := &decideMsg{TxID: txid, Commit: status == StatusCommitted}
		size := wire.PayloadSize(MsgDecide, dec)
		for _, shard := range d.Shards() {
			if !m.shardInRange(shard) {
				continue
			}
			for _, node := range m.topo.ShardNodes[shard] {
				m.ep.Send(simnet.Message{To: node, Class: simnet.ClassConsensus,
					Type: MsgDecide, Payload: dec, Size: size})
			}
		}
		if d.Client != 0 {
			out := OutcomeMsg{TxID: txid, Committed: dec.Commit}
			m.ep.Send(simnet.Message{To: d.Client, Class: simnet.ClassConsensus,
				Type: MsgOutcome, Payload: out, Size: wire.PayloadSize(MsgOutcome, out)})
		}
	}
}

func (m *Manager) onShardExecuted(tx chain.Tx, ok bool) {
	ref, mine := m.injectedTx[tx.ID]
	if !mine {
		return
	}
	switch ref.kind {
	case "prepare":
		// Executing the prepare is the moment the 2PL locks land (whatever
		// happens to them next), so the lock-wait histogram closes here.
		if t := m.met; t != nil {
			now := t.hub.Now()
			if at, seen := t.prepInjAt[ref.txid]; seen {
				t.prepareWait.Observe(now - at)
			}
			if _, seen := t.prepExecAt[ref.txid]; !seen {
				t.prepExecAt[ref.txid] = now
			}
			t.hub.RecordKey(t.node, obs.Stage2PCVote, ref.txid, boolArg(ok))
		}
		if m.done[ref.txid] {
			// The prepare was ordered behind the decision it belongs to
			// (phase 2 already executed here — only possible for aborts,
			// decided by another shard's NotOK before our prepare ran).
			// Its effects — 2PL locks and staged writes — landed *after*
			// the abort released them, so without a cleanup they dangle
			// forever: the coordinator considers the transaction finished
			// and will never send another decide. Re-inject the abort
			// under a distinct derived id; every honest replica of this
			// shard observes the same execution order and injects the
			// identical transaction, so consensus orders exactly one
			// cleanup.
			m.injectLateCleanup(ref.txid)
			return
		}
		if _, dec := m.decided[ref.txid]; dec {
			// Decision already known (phase 2 injected, not yet executed):
			// the vote is moot and phase 2 will release what this prepare
			// just acquired.
			return
		}
		v := &voteNetMsg{TxID: ref.txid, Shard: m.shardID, OK: ok}
		m.voted[ref.txid] = v
		next := m.replica.Engine().Now().Add(retryInterval)
		m.voteRetry[ref.txid] = &retrySched{next: next}
		m.sendVote(v)
		m.scheduleRetry(next)
	case "commit", "abort":
		// Phase 2 executed: the transaction is finished on this shard and
		// the vote no longer needs retransmitting.
		delete(m.voted, ref.txid)
		delete(m.voteRetry, ref.txid)
		m.done[ref.txid] = true
		m.obsFinished(ref.txid)
		if _, known := m.decided[ref.txid]; !known {
			m.decided[ref.txid] = ref.kind == "commit"
		}
		if t := m.met; t != nil {
			now := t.hub.Now()
			if at, seen := t.prepExecAt[ref.txid]; seen {
				t.lockHold.Observe(now - at)
			}
			if at, seen := t.decInjAt[ref.txid]; seen {
				t.decideWait.Observe(now - at)
			}
			t.hub.RecordKey(t.node, obs.Stage2PCDone, ref.txid, boolArg(ref.kind == "commit"))
			t.forget(ref.txid)
		}
	}
}

// injectLateCleanup re-injects phase 2 for a transaction whose prepare
// executed after its decision (see onShardExecuted). The derived id is
// distinct from the original decide injection, which consensus already
// executed.
func (m *Manager) injectLateCleanup(txid string) {
	d, ok := m.prepareDTx[txid]
	if !ok {
		return
	}
	fn, kind := d.AbortFn, "abort"
	if m.decided[txid] {
		fn, kind = d.CommitFn, "commit"
	}
	id := DeriveTxID(txid, kind, strconv.Itoa(m.shardID), "late")
	m.inject(id, kindRef{txid: txid, kind: kind}, chain.Tx{
		ID: id, Chaincode: d.Chaincode, Fn: fn, Args: []string{txid},
	})
}

// sendPrepares transmits PrepareTx for txid to every replica of every
// involved tx-committee. Shard indices come from a client-encoded DTx —
// remotely supplied in the live runtime — so out-of-range ops are
// skipped rather than trusted (their transaction can then never gather
// the missing vote and aborts at the protocol level, which is the right
// fate for a malformed DTx).
func (m *Manager) sendPrepares(txid string, d DTx) {
	p := &prepareMsg{TxID: txid, DTx: d.Encode()}
	size := wire.PayloadSize(MsgPrepare, p)
	for _, shard := range d.Shards() {
		if !m.shardInRange(shard) {
			continue
		}
		for _, node := range m.topo.ShardNodes[shard] {
			m.ep.Send(simnet.Message{To: node, Class: simnet.ClassConsensus,
				Type: MsgPrepare, Payload: p, Size: size})
		}
	}
}

// shardInRange reports whether shard names a committee in the topology.
func (m *Manager) shardInRange(shard int) bool {
	return shard >= 0 && shard < len(m.topo.ShardNodes)
}

// scheduleRetry makes the retry timer fire no later than `at` — the O(1)
// per-transaction registration path.
func (m *Manager) scheduleRetry(at sim.Time) {
	if m.ep.Down() {
		return
	}
	m.retry.ensure(at)
}

// armRetry rescans the retransmission schedules and arms the timer for
// the earliest one (or stops it when nothing is pending). Called once
// per timer firing and on crash recovery — the per-transaction hot path
// uses scheduleRetry instead.
func (m *Manager) armRetry() {
	if m.ep.Down() {
		return
	}
	var earliest sim.Time
	found := false
	// Min over map values is order-independent, so plain iteration here
	// cannot break determinism.
	for _, st := range m.pending {
		if !found || st.next < earliest {
			earliest, found = st.next, true
		}
	}
	for _, st := range m.voteRetry {
		if !found || st.next < earliest {
			earliest, found = st.next, true
		}
	}
	m.retry.rearm(earliest, found)
}

// retryTick retransmits only for transactions whose backoff interval has
// fully elapsed, so the healthy path never generates extra traffic and a
// stuck transaction's traffic decays to one send per maxRetryInterval.
func (m *Manager) retryTick() {
	// Retransmissions schedule network events, so both maps are walked in
	// sorted txid order — map-order iteration here would break the
	// simulator's run-to-run determinism.
	now := m.replica.Engine().Now()
	for _, txid := range sortedKeys(m.pending) {
		st := m.pending[txid]
		if now < st.next {
			continue
		}
		if StatusOf(m.replica.Store(), txid).Terminal() {
			delete(m.pending, txid)
			continue
		}
		if d, ok := DTxOf(m.replica.Store(), txid); ok {
			if m.met != nil {
				m.met.retryPrepares.Inc()
			}
			m.sendPrepares(txid, d)
		}
		st.attempts++
		st.next = now.Add(retryBackoff(st.attempts))
	}
	for _, txid := range sortedKeys(m.voteRetry) {
		st := m.voteRetry[txid]
		if now < st.next {
			continue
		}
		if v := m.voted[txid]; v != nil {
			// Still no decision: the vote (or the decision) was lost. A
			// reference replica that already decided answers this with a
			// fresh CommitTx/AbortTx (see handleVote).
			if m.met != nil {
				m.met.retryVotes.Inc()
			}
			m.sendVote(v)
		}
		st.attempts++
		st.next = now.Add(retryBackoff(st.attempts))
	}
	m.armRetry()
}

// sendVote transmits v to every member of the transaction's coordinating
// reference group.
func (m *Manager) sendVote(v *voteNetMsg) {
	group, _ := m.topo.RefGroup(m.topo.GroupForTx(v.TxID))
	size := wire.PayloadSize(MsgVote, v)
	for _, node := range group {
		m.ep.Send(simnet.Message{To: node, Class: simnet.ClassConsensus,
			Type: MsgVote, Payload: v, Size: size})
	}
}
