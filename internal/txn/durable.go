package txn

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/storage"
	"repro/internal/wire"
)

// 2PC durability. A shard replica's manager holds protocol state that is
// neither in the replicated store nor reconstructible from peers once the
// coordinator has moved on: which DTx bodies it learned, which decisions
// reached a quorum, and which protocol steps it injected into consensus.
// Losing that state across a crash leaves 2PL locks held forever — the
// coordinator considers the transaction finished and never re-sends the
// decide. So when durability is enabled the manager journals three facts
// write-ahead into the replica's WAL (interleaved with the decided blocks
// they relate to, preserving cross-layer causality):
//
//	stageDTx      — the transaction description learned from a prepare
//	stageDecided  — a quorum-backed commit/abort decision
//	stageInjected — a protocol step handed to consensus (with its body,
//	                so an undecided step can be resubmitted after restart)
//
// At every stable checkpoint the replica asks the manager (via
// SetDurableExtra) for a stage blob summarizing the same facts for all
// still-unfinished transactions; the blob rides in the durable snapshot,
// which is what lets the WAL prefix be truncated.
//
// Reference-side managers journal nothing: the coordinator state machine
// lives entirely in the replicated store, so recovery is a store scan
// (recoverReference).
//
// Boot recovery (driven by internal/core):
//
//	ApplyStageBlob(snapshot.Stage)          — rebuild the unfinished set
//	ApplyStage(rec.Stage) / ReplayDecided   — interleaved WAL tail
//	FinishRecovery()                        — re-vote, resubmit, re-arm
const (
	stageDTx      byte = 1
	stageDecided  byte = 2
	stageInjected byte = 3
	stageDone     byte = 4
)

// EnableDurability makes the manager journal its 2PC stage transitions to
// backend (the same backend the replica writes blocks to) and registers
// its stage blob with the replica's durable snapshots. Call before any
// traffic is handled.
func (m *Manager) EnableDurability(backend storage.Backend) {
	m.durable = backend
	if m.injectedBody == nil {
		m.injectedBody = make(map[uint64]chain.Tx)
	}
	m.replica.SetDurableExtra(m.stageBlob)
}

// stageAppend journals one stage payload; durability failures route
// through the replica's fatal path (losing the journal voids the
// crash-recovery promise, same as losing the WAL).
func (m *Manager) stageAppend(payload []byte) {
	if err := m.durable.Append(storage.Record{Kind: storage.KindStage, Stage: payload}); err != nil {
		m.replica.StorageFatal(fmt.Errorf("txn: stage append: %w", err))
	}
}

func (m *Manager) stageWriteDTx(txid, dtx string) {
	if m.durable == nil {
		return
	}
	var e wire.Encoder
	encodeStageDTx(&e, txid, dtx)
	m.stageAppend(append([]byte(nil), e.Bytes()...))
}

func (m *Manager) stageWriteDecided(txid string, commit bool) {
	if m.durable == nil {
		return
	}
	var e wire.Encoder
	encodeStageDecided(&e, txid, commit)
	m.stageAppend(append([]byte(nil), e.Bytes()...))
}

func (m *Manager) stageWriteInjected(id uint64, ref kindRef, tx chain.Tx) {
	if m.durable == nil {
		return
	}
	m.injectedBody[id] = tx
	var e wire.Encoder
	encodeStageInjected(&e, id, ref, tx)
	m.stageAppend(append([]byte(nil), e.Bytes()...))
}

func encodeStageDTx(e *wire.Encoder, txid, dtx string) {
	e.Byte(stageDTx)
	e.String(txid)
	e.String(dtx)
}

func encodeStageDecided(e *wire.Encoder, txid string, commit bool) {
	e.Byte(stageDecided)
	e.String(txid)
	e.Bool(commit)
}

func encodeStageInjected(e *wire.Encoder, id uint64, ref kindRef, tx chain.Tx) {
	e.Byte(stageInjected)
	e.Uvarint(id)
	e.String(ref.txid)
	e.String(ref.kind)
	wire.PutTx(e, tx)
}

func encodeStageDone(e *wire.Encoder, txid string) {
	e.Byte(stageDone)
	e.String(txid)
}

// applyStageRecord decodes one journaled stage transition off d and folds
// it into the manager's maps. It never journals in turn — the record is
// already durable.
func (m *Manager) applyStageRecord(d *wire.Decoder) error {
	switch kind := d.Byte(); kind {
	case stageDTx:
		txid, enc := d.String(), d.String()
		if d.Err() != nil {
			break
		}
		if _, known := m.prepareDTx[txid]; !known {
			dtx, err := DecodeDTx(enc)
			if err != nil {
				return fmt.Errorf("%w: stage dtx %q: %v", storage.ErrCorrupt, txid, err)
			}
			m.prepareDTx[txid] = dtx
		}
	case stageDecided:
		txid, commit := d.String(), d.Bool()
		if d.Err() != nil {
			break
		}
		if _, known := m.decided[txid]; !known {
			m.decided[txid] = commit
		}
	case stageInjected:
		id := d.Uvarint()
		ref := kindRef{txid: d.String(), kind: d.String()}
		tx := wire.Tx(d)
		if d.Err() != nil {
			break
		}
		m.injectedTx[id] = ref
		m.injectedBody[id] = tx
		if ref.kind == "commit" || ref.kind == "abort" {
			m.decideInj[ref.txid] = true
		}
	case stageDone:
		txid := d.String()
		if d.Err() != nil {
			break
		}
		m.done[txid] = true
	default:
		return fmt.Errorf("%w: unknown stage record kind %d", storage.ErrCorrupt, kind)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: stage record: %v", storage.ErrCorrupt, err)
	}
	return nil
}

// ApplyStage replays one KindStage WAL record during boot recovery. Call
// in WAL order, interleaved with the replica's ReplayDecided, so that a
// block's injected-step registrations are in place before the block
// re-executes.
func (m *Manager) ApplyStage(payload []byte) error {
	d := wire.NewDecoder(payload)
	if err := m.applyStageRecord(d); err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w: stage record: %v", storage.ErrCorrupt, err)
	}
	return nil
}

// finished reports whether txid needs no recovery state at all: phase 2
// executed here and no injected step is still pending in consensus.
func (m *Manager) finished(txid string, pendingTx map[string]bool) bool {
	return m.done[txid] && !pendingTx[txid]
}

// stageBlob serializes the unfinished transactions' stage state for a
// durable snapshot — the same facts as the journaled records, compacted:
// transactions that are done and fully executed are dropped.
func (m *Manager) stageBlob() []byte {
	// pendingTx marks transactions with an injected step consensus has not
	// executed yet; those must survive even when marked done (a late
	// cleanup could still be in flight).
	pendingTx := make(map[string]bool)
	//ahl:nondeterministic set insertion of a constant keyed by txid, guarded by a read-only ExecutedOK query; insertion order is invisible
	for id, ref := range m.injectedTx {
		if _, executed := m.replica.ExecutedOK(id); !executed {
			pendingTx[ref.txid] = true
		}
	}
	var e wire.Encoder
	var n uint64
	var body wire.Encoder
	for _, txid := range sortedKeys(m.prepareDTx) {
		if m.finished(txid, pendingTx) {
			continue
		}
		encodeStageDTx(&body, txid, m.prepareDTx[txid].Encode())
		n++
	}
	for _, txid := range sortedKeys(m.decided) {
		if m.finished(txid, pendingTx) {
			continue
		}
		encodeStageDecided(&body, txid, m.decided[txid])
		n++
	}
	for _, txid := range sortedKeys(m.done) {
		if !pendingTx[txid] {
			continue
		}
		encodeStageDone(&body, txid)
		n++
	}
	for _, id := range sortedKeys(m.injectedTx) {
		ref := m.injectedTx[id]
		if m.finished(ref.txid, pendingTx) {
			continue
		}
		tx, ok := m.injectedBody[id]
		if !ok {
			// Pre-durability injection (EnableDurability must run before
			// traffic, so this indicates a wiring bug); skip rather than
			// journal a bodiless step.
			continue
		}
		encodeStageInjected(&body, id, ref, tx)
		n++
	}
	e.Uvarint(n)
	e.ByteSlice(body.Bytes())
	return append([]byte(nil), e.Bytes()...)
}

// ApplyStageBlob restores the stage state carried by a durable snapshot.
// Call once, before replaying the WAL tail.
func (m *Manager) ApplyStageBlob(blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	if m.injectedBody == nil {
		m.injectedBody = make(map[uint64]chain.Tx)
	}
	d := wire.NewDecoder(blob)
	n := d.Count(1)
	body := wire.NewDecoder(d.ByteSlice())
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w: stage blob: %v", storage.ErrCorrupt, err)
	}
	for i := 0; i < n; i++ {
		if err := m.applyStageRecord(body); err != nil {
			return err
		}
	}
	if err := body.Finish(); err != nil {
		return fmt.Errorf("%w: stage blob: %v", storage.ErrCorrupt, err)
	}
	return nil
}

// FinishRecovery completes boot recovery after the snapshot and WAL tail
// have been applied: executed protocol steps are replayed into the
// manager's vote/done tracking, undecided steps are resubmitted to
// consensus, deferred phase-2 injections are retried, and the
// retransmission loop is re-armed. The replica must be able to send
// (recovery sends votes so a coordinator that moved on re-answers with
// its decision — the path that frees otherwise-dangling 2PL locks).
func (m *Manager) FinishRecovery() {
	if m.role == RoleReference {
		m.recoverReference()
		return
	}
	ids := sortedKeys(m.injectedTx)
	// Phase-2 steps first: they establish done/decided, which changes how
	// a replayed prepare is treated (vote vs. late cleanup).
	for _, pass := range []bool{true, false} {
		for _, id := range ids {
			ref := m.injectedTx[id]
			phase2 := ref.kind == "commit" || ref.kind == "abort"
			if phase2 != pass {
				continue
			}
			if ok, executed := m.replica.ExecutedOK(id); executed {
				m.onShardExecuted(chain.Tx{ID: id}, ok)
			}
		}
	}
	// Resubmit steps consensus never decided; ids are deterministic, so a
	// step decided while we were down is deduplicated by the dedup sets
	// restored above.
	for _, id := range ids {
		if _, executed := m.replica.ExecutedOK(id); executed {
			continue
		}
		if tx, ok := m.injectedBody[id]; ok {
			m.replica.SubmitLocal(tx)
		}
	}
	// A decision whose phase-2 injection was deferred on a missing DTx may
	// be injectable now that the stage journal restored the DTx.
	for _, txid := range sortedKeys(m.decided) {
		m.maybeInjectDecide(txid)
	}
	m.obsRecount()
	m.armRetry()
}

// recoverReference rebuilds a reference replica's coordination state from
// the replicated store: terminal transactions are marked announced
// (shards that missed the decide re-learn it through the vote-retry
// handshake), and undecided transactions this group coordinates go back
// on the prepare-retransmission schedule.
func (m *Manager) recoverReference() {
	store := m.replica.Store()
	now := m.replica.Engine().Now()
	for _, key := range store.Head().KeysWithPrefix("T_") {
		txid := key[len("T_"):]
		status := StatusOf(store, txid)
		if status.Terminal() {
			m.announced[txid] = true
			continue
		}
		if m.topo.GroupForTx(txid) != m.shardID {
			continue
		}
		d, found := DTxOf(store, txid)
		if !found {
			continue
		}
		m.pending[txid] = &retrySched{next: now.Add(retryInterval)}
		m.sendPrepares(txid, d)
	}
	m.armRetry()
}

// DanglingLocks reports the shard-side transactions that still hold 2PL
// state here: prepared (locks acquired or acquisition in flight) but no
// phase-2 execution. The restart smoke test asserts this drains to zero.
func (m *Manager) DanglingLocks() []string {
	if m.role != RoleShard {
		return nil
	}
	var out []string
	seen := make(map[string]bool)
	// Sorted injection order: callers diff this list across restarts, so
	// its order must not depend on map iteration.
	for _, id := range sortedKeys(m.injectedTx) {
		ref := m.injectedTx[id]
		if ref.kind == "prepare" && !m.done[ref.txid] && !seen[ref.txid] {
			seen[ref.txid] = true
			out = append(out, ref.txid)
		}
	}
	return out
}
