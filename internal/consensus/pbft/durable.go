package pbft

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/chaincode"
	"repro/internal/consensus"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Durability integration. When Deps.Durable is set (live nodes only — the
// deterministic simulator passes nil and is untouched), the replica:
//
//   - appends every decided batch to the WAL *before* executing it
//     (tryExecute), so a crash between decide and execute replays the
//     batch instead of losing it;
//   - persists a storage.Snapshot — state, dedup sets, the checkpoint
//     certificate, and the transaction manager's stage blob — whenever a
//     checkpoint becomes stable with matching local state (advanceStable)
//     or a peer snapshot is installed (installSnapshot), then lets the
//     backend reclaim the WAL prefix the snapshot covers.
//
// Boot recovery is driven from the outside (internal/core's LiveNode):
// RestoreDurableSnapshot rewinds the replica to the snapshot, then
// ReplayDecided re-executes each WAL block in order — interleaved with
// the manager's stage records so cross-layer causality is preserved —
// and finally ResyncWithPeers uses the existing statesync/replay
// protocol to fetch whatever the committee decided while the process
// was down.

// OnStorageFatal installs the callback invoked when a durability write
// fails. Losing the WAL means the replica can no longer honor its
// crash-recovery promise, so the default without a callback is to panic;
// the live runtime routes the error to a fatal-exit path instead.
func (r *Replica) OnStorageFatal(fn func(error)) { r.onStorageFatal = fn }

// SetDurableExtra installs the provider of the opaque stage blob stored
// in every durable snapshot (the transaction manager's in-flight 2PC
// state). Restored bytes are handed back to the owner, not interpreted.
func (r *Replica) SetDurableExtra(fn func() []byte) { r.durableExtra = fn }

// StorageFatal routes a durability failure from a composing layer (the
// transaction manager journals through the replica's backend) into the
// same fatal path as the replica's own WAL failures.
func (r *Replica) StorageFatal(err error) { r.storageFatal(err) }

func (r *Replica) storageFatal(err error) {
	if r.onStorageFatal != nil {
		r.onStorageFatal(err)
		return
	}
	panic("pbft: storage failure with no fatal handler: " + err.Error())
}

// appendDecided writes the decided batch at seq write-ahead of its
// execution. It reports whether execution may proceed: a failed append
// must halt the replica (via the fatal path) rather than execute state
// the disk does not have.
func (r *Replica) appendDecided(e *entry) bool {
	if r.durable == nil {
		return true
	}
	err := r.durable.Append(storage.Record{Kind: storage.KindBlock, Seq: e.seq, Block: e.block})
	if err != nil {
		r.storageFatal(fmt.Errorf("pbft: WAL append of seq %d: %w", e.seq, err))
		return false
	}
	return true
}

// snapshotStableState materializes the stable-checkpoint view into a
// transferable snapshot for a state-sync response. The view is immutable,
// so the copy takes no store lock, but it runs on the engine loop:
// execution waits for it. The histogram tracks how long the
// materialization takes. The durable path does not copy: it streams the
// view into the snapshot encoding (persistDurableSnapshot).
func (r *Replica) snapshotStableState() chain.Snapshot {
	var start int64
	if m := r.met; m != nil {
		start = m.hub.Now()
	}
	sn := r.stableView.Snapshot()
	if m := r.met; m != nil {
		m.snapshotCopy.Observe(m.hub.Now() - start)
	}
	return sn
}

// persistDurableSnapshot saves the current stable-checkpoint state as the
// recovery root and releases the WAL prefix it covers. Called wherever
// stableView is refreshed.
func (r *Replica) persistDurableSnapshot() {
	if r.durable == nil || r.stableSnapSeq == 0 || r.stableView == nil {
		return
	}
	// Filtering the sorted stableExecIDs keeps both subsets sorted.
	var okIDs, failIDs []uint64
	for _, id := range r.stableExecIDs {
		if ok, known := r.executedOK[id]; known {
			if ok {
				okIDs = append(okIDs, id)
			} else {
				failIDs = append(failIDs, id)
			}
		}
	}
	snap := storage.Snapshot{
		Seq: r.stableSnapSeq,
		// The capture reflects everything executed so far, which can run
		// past the checkpoint (blocks whose transactions were all deduped
		// or failed leave the digest unchanged, so advanceStable still
		// matches). Recording the true execution watermark keeps boot
		// replay's continuity check aligned with the WAL tail; recording
		// Seq instead would make every restart fail with a phantom gap.
		ExecutedThrough: r.executedThrough,
		View:            r.view,
		StateView:       r.stableView,
		ExecIDs:         r.stableExecIDs,
		OKIDs:           okIDs,
		FailIDs:         failIDs,
		Cert:            encodeCert(r.stableCert),
	}
	if r.durableExtra != nil {
		snap.Stage = r.durableExtra()
	}
	if err := r.durable.SaveSnapshot(snap); err != nil {
		r.storageFatal(fmt.Errorf("pbft: snapshot at seq %d: %w", snap.Seq, err))
		return
	}
	// The WAL may already hold the block being executed right now:
	// appendDecided runs before execution starts, so that record sits
	// below the replay floor SaveSnapshot just established, yet its
	// effects are not in the snapshot (executedThrough has not advanced).
	// Re-append it above the floor or the tail would resume one block
	// late and boot recovery would report a gap. A duplicate seen when
	// replaying from an older fallback snapshot is skipped harmlessly.
	if e := r.execEntry; r.executing && e != nil && e.seq == r.executedThrough+1 {
		err := r.durable.Append(storage.Record{Kind: storage.KindBlock, Seq: e.seq, Block: e.block})
		if err != nil {
			r.storageFatal(fmt.Errorf("pbft: WAL re-append of seq %d: %w", e.seq, err))
			return
		}
	}
	if err := r.durable.TruncateBefore(snap.Seq); err != nil {
		r.storageFatal(fmt.Errorf("pbft: WAL truncation at seq %d: %w", snap.Seq, err))
	}
}

// RestoreDurableSnapshot rewinds the replica to a recovered snapshot:
// world state, execution dedup sets, watermarks, view, and the checkpoint
// certificate that lets this replica serve state-sync requests for the
// restored state. Call before the engine loop starts, then feed the WAL
// tail through ReplayDecided. Returns the snapshot's opaque stage blob
// for the transaction layer.
func (r *Replica) RestoreDurableSnapshot(s *storage.Snapshot) ([]byte, error) {
	cert, err := decodeCert(s.Cert)
	if err != nil {
		return nil, err
	}
	r.store.Restore(s.State)
	r.executedTxIDs = make(map[uint64]bool, len(s.ExecIDs))
	for _, id := range s.ExecIDs {
		r.executedTxIDs[id] = true
	}
	r.newExecIDs = r.newExecIDs[:0]
	r.executedOK = make(map[uint64]bool, len(s.OKIDs)+len(s.FailIDs))
	for _, id := range s.OKIDs {
		r.executedOK[id] = true
	}
	for _, id := range s.FailIDs {
		r.executedOK[id] = false
	}
	// Execution resumes where the capture left off, which can be past the
	// checkpoint itself (see persistDurableSnapshot); the checkpoint
	// watermarks stay at Seq, the sequence the certificate covers.
	et := s.ExecutedThrough
	if et < s.Seq {
		et = s.Seq
	}
	r.executedThrough = et
	r.h = s.Seq
	r.seqAssign = et
	r.view = s.View
	r.store.Seal()
	r.stableView = r.store.Head()
	r.stableSnapSeq = s.Seq
	r.stableCert = cert
	r.stableExecIDs = s.ExecIDs
	return s.Stage, nil
}

// ReplayDecided re-executes one WAL block record during boot recovery.
// Records at or below the snapshot are skipped (the snapshot already
// reflects them); a gap above it means the log lost records and is
// reported, not papered over. Execution mirrors finishExecute's state
// transitions but sends nothing and charges no virtual CPU — the decided
// batch is final, this is reconstruction, not consensus.
func (r *Replica) ReplayDecided(seq uint64, block *chain.Block) error {
	if seq <= r.executedThrough {
		return nil
	}
	if seq != r.executedThrough+1 {
		return fmt.Errorf("%w: WAL resumes at seq %d, want %d", storage.ErrCorrupt, seq, r.executedThrough+1)
	}
	if block == nil {
		return fmt.Errorf("%w: WAL block record at seq %d has no block", storage.ErrCorrupt, seq)
	}
	r.executedThrough = seq
	blk := &chain.Block{Header: block.Header, Txs: block.Txs}
	blk.Header.Height = r.ledger.Height()
	blk.Header.PrevHash = r.ledger.TipHash()
	if err := r.ledger.Append(blk); err != nil {
		return fmt.Errorf("pbft: replay ledger append at seq %d: %w", seq, err)
	}
	results := make([]chaincode.Result, 0, len(block.Txs))
	for _, tx := range block.Txs {
		if r.executedTxIDs[tx.ID] {
			continue
		}
		r.noteExecuted(tx.ID)
		res := r.deps.Registry.Execute(r.store, tx)
		r.executedOK[tx.ID] = res.OK()
		for _, dtx := range res.Committed {
			r.store.RecordCommit(dtx)
		}
		results = append(results, res)
		r.dropRequest(tx.ID)
		r.executedCount++
	}
	r.store.Seal()
	if r.seqAssign < seq {
		r.seqAssign = seq
	}
	if r.onExec != nil {
		r.onExec(consensus.BlockEvent{Block: blk, Results: results, Time: r.engine.Now()})
	}
	return nil
}

// ResyncWithPeers asks the committee for anything decided while this
// process was down: state snapshots beyond our recovered tail and replay
// of individual decided blocks. Call once the engine loop is running (it
// sends protocol messages).
func (r *Replica) ResyncWithPeers() {
	r.lastSyncReq = 0
	r.noteAhead()
}

// encodeCert serializes a checkpoint certificate for storage, reusing the
// wire codec that carries the same messages in state-sync responses.
func encodeCert(cert []*checkpointMsg) []byte {
	var e wire.Encoder
	e.Uvarint(uint64(len(cert)))
	for _, ck := range cert {
		putCheckpoint(&e, ck)
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodeCert(data []byte) ([]*checkpointMsg, error) {
	if len(data) == 0 {
		return nil, nil
	}
	d := wire.NewDecoder(data)
	n := d.Count(1)
	cert := make([]*checkpointMsg, 0, wire.CapHint(n))
	for i := 0; i < n && d.Err() == nil; i++ {
		cert = append(cert, getCheckpoint(d))
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: checkpoint certificate: %v", storage.ErrCorrupt, err)
	}
	return cert, nil
}
