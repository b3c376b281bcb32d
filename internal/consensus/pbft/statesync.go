package pbft

import (
	"sort"
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/sim"
)

// State synchronization: a replica that fell behind (its blocks were
// dropped while it was down, e.g. while transitioning between committees
// during resharding, §5.3) fetches a state snapshot from a peer.
//
// Safety rests on checkpoint certificates: every replica retains, for its
// latest stable checkpoint, the quorum of signed/attested checkpoint
// messages that made it stable. A snapshot is only installed if it comes
// with a certificate of f+1 distinct valid attestations over the
// snapshot's digest — at least one of which is from an honest replica, so
// the state is one the committee really agreed on. This makes catch-up
// independent of *new* checkpoint quorums forming, which matters during
// reconfiguration: a revived batch must be able to sync even while the
// next batch is away.

// Message types.
const (
	msgStateReq  = "pbft/state-req"
	msgStateResp = "pbft/state-resp"
)

type stateReqMsg struct {
	// Seq is the minimum checkpoint wanted; 0 means "your latest".
	Seq     uint64
	Replica int
}

type stateRespMsg struct {
	Seq  uint64
	Snap chain.Snapshot
	Cert []*checkpointMsg
	// ExecIDs is the executed-transaction dedup set as of Seq. Without
	// it a restored replica would skip/re-execute duplicate submissions
	// differently from its peers and its state digest would diverge
	// forever (checkpoints could never stabilize again).
	ExecIDs []uint64
	Replica int
}

// stateSyncCost is the CPU time to install a snapshot (plus certificate
// verification charged separately).
const stateSyncCost = 5 * time.Millisecond

// syncReqInterval rate-limits sync requests.
const syncReqInterval = 500 * time.Millisecond

// noteAhead is called when traffic proves the committee has moved beyond
// our window; request a snapshot from the leader and one peer.
func (r *Replica) noteAhead() {
	now := r.engine.Now()
	if r.lastSyncReq != 0 && now.Sub(sim.Time(r.lastSyncReq)) < syncReqInterval {
		return
	}
	r.lastSyncReq = int64(now)
	r.requestReplay()
	req := &stateReqMsg{Seq: 0, Replica: r.self()}
	r.sendTo(r.leaderID(), msgStateReq, req)
	peer := r.opts.Committee.Nodes[(r.self()+1)%r.n()]
	if peer != r.ep.ID() && peer != r.leaderID() {
		r.sendTo(peer, msgStateReq, req)
	}
}

// maybeRequestSync fires from advanceStable when the stable checkpoint ran
// ahead of execution by more than a pipeline's worth of sequence numbers.
func (r *Replica) maybeRequestSync(seq uint64, holders []int) {
	if seq <= r.executedThrough+r.opts.CheckpointEvery+r.opts.Window {
		return
	}
	req := &stateReqMsg{Seq: seq, Replica: r.self()}
	asked := 0
	for _, idx := range holders {
		if idx == r.self() {
			continue
		}
		r.sendTo(r.opts.Committee.Nodes[idx], msgStateReq, req)
		asked++
		if asked == 2 { // redundancy without a broadcast storm
			return
		}
	}
}

func (r *Replica) handleStateReq(m *stateReqMsg) {
	if r.stableView == nil || r.stableSnapSeq == 0 || r.stableSnapSeq < m.Seq || len(r.stableCert) < r.quorum() {
		return
	}
	if m.Replica < 0 || m.Replica >= r.n() {
		return
	}
	resp := &stateRespMsg{
		Seq:     r.stableSnapSeq,
		Snap:    r.snapshotStableState(),
		Cert:    r.stableCert,
		ExecIDs: r.stableExecIDs,
		Replica: r.self(),
	}
	r.sendTo(r.opts.Committee.Nodes[m.Replica], msgStateResp, resp)
}

func (r *Replica) handleStateResp(m *stateRespMsg) {
	if m.Seq <= r.executedThrough {
		return
	}
	// Verify the checkpoint certificate: a quorum of distinct replicas
	// attested this exact (seq, state digest).
	r.ep.CPU().Charge(time.Duration(len(m.Cert)) * r.deps.Platform.Costs().Verify)
	seen := make(map[int]bool, len(m.Cert))
	valid := 0
	for _, ck := range m.Cert {
		if ck == nil || ck.Seq != m.Seq || ck.State != m.Snap.Digest || seen[ck.Replica] {
			continue
		}
		if !r.att.verify(ck.Replica, "checkpoint", ck.Seq, ck.State, ck.Att) {
			continue
		}
		seen[ck.Replica] = true
		valid++
	}
	if valid < r.quorum() {
		return
	}
	r.installSnapshot(m.Seq, m.Snap, m.Cert, m.ExecIDs)
}

func (r *Replica) installSnapshot(seq uint64, snap chain.Snapshot, cert []*checkpointMsg, execIDs []uint64) {
	r.ep.CPU().Charge(stateSyncCost)
	r.store.Restore(snap)
	r.executedTxIDs = make(map[uint64]bool, len(execIDs))
	for _, id := range execIDs {
		r.executedTxIDs[id] = true
		r.dropRequest(id)
	}
	r.newExecIDs = r.newExecIDs[:0]
	r.executedThrough = seq
	if seq > r.h {
		r.h = seq
	}
	for s, e := range r.entries {
		if s <= seq && !e.executed {
			delete(r.entries, s)
		}
	}
	if r.seqAssign < seq {
		r.seqAssign = seq
	}
	// Restore dropped the retention window of the discarded history;
	// re-seal the installed state so it is a pinnable boundary again.
	r.store.Seal()
	r.stableView = r.store.Head()
	r.stableSnapSeq = seq
	r.stableCert = cert
	r.stableExecIDs = sortedUnique(execIDs)
	// A peer-supplied snapshot is as final as a local stable checkpoint:
	// make it the durable recovery root too, so a crash right after
	// catch-up does not rewind to the pre-sync state.
	r.persistDurableSnapshot()
	r.suspected = false
	r.inViewChange = false
	r.maybeFinishEnclaveRecovery()
	if len(r.pending) > 0 {
		r.armProgressTimer()
	} else {
		r.vcTimer.Stop()
	}
	// Resume executing anything already committed past the snapshot.
	r.tryExecute()
}

// certFor extracts the quorum certificate for (seq, digest) from the
// collected checkpoint messages.
func certFor(ck map[int]*checkpointMsg, digest blockcrypto.Digest) []*checkpointMsg {
	// Replica order: the certificate is forwarded in state responses, so
	// its order must be run-independent.
	var cert []*checkpointMsg
	idxs := make([]int, 0, len(ck))
	for idx := range ck {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		if m := ck[idx]; m.State == digest {
			cert = append(cert, m)
		}
	}
	return cert
}
