package pbft

import (
	"repro/internal/obs"
)

// pbftMetrics holds one replica's resolved observability handles. The
// pointer is nil when no obs.Hub was injected (every simulator bench
// path), so the instrumented hot paths cost a single nil check and the
// published BENCH baselines stay byte-identical with obs compiled in.
type pbftMetrics struct {
	hub  *obs.Hub
	node uint32

	// Pipeline: assigned-but-unexecuted sequences (leader), with a
	// watermark that survives for post-run scrapes.
	occupancy     *obs.Gauge
	occupancyPeak *obs.Gauge

	// Batching: cut sizes and why each cut happened (size-full,
	// BatchTimeout cadence, adaptive idle fast path).
	batchTxs   *obs.Histogram
	cutSize    *obs.Counter
	cutTimeout *obs.Counter
	cutFast    *obs.Counter

	// Per-sequence consensus latencies.
	commitLatency *obs.Histogram // pre-prepare accept -> commit quorum
	execLatency   *obs.Histogram // execution start -> finish
	walAppend     *obs.Histogram // journal-before-execute append

	viewChanges     *obs.Counter
	checkpointLag   *obs.Gauge // executedThrough - stable checkpoint
	executedBatches *obs.Counter
	executedTxs     *obs.Counter
	snapshotCopy    *obs.Histogram // stable-view snapshot materialization
}

func newPBFTMetrics(hub *obs.Hub, node uint32) *pbftMetrics {
	reg := hub.Reg
	return &pbftMetrics{
		hub:  hub,
		node: node,

		occupancy:     reg.Gauge("pbft_pipeline_occupancy"),
		occupancyPeak: reg.Gauge("pbft_pipeline_occupancy_peak"),

		batchTxs:   reg.SizeHistogram("pbft_batch_txs"),
		cutSize:    reg.Counter("pbft_batch_cut_size_total"),
		cutTimeout: reg.Counter("pbft_batch_cut_timeout_total"),
		cutFast:    reg.Counter("pbft_batch_cut_fastpath_total"),

		commitLatency: reg.Histogram("pbft_commit_latency"),
		execLatency:   reg.Histogram("pbft_exec_latency"),
		walAppend:     reg.Histogram("pbft_wal_append_latency"),

		viewChanges:     reg.Counter("pbft_view_changes_total"),
		checkpointLag:   reg.Gauge("pbft_checkpoint_lag"),
		executedBatches: reg.Counter("pbft_executed_batches_total"),
		executedTxs:     reg.Counter("pbft_executed_txs_total"),
		snapshotCopy:    reg.Histogram("pbft_snapshot_copy_latency"),
	}
}

// ObsHub returns the hub this replica was built with (nil when
// uninstrumented). The txn manager and the live node pick the hub up
// here rather than having it threaded through their own constructors.
func (r *Replica) ObsHub() *obs.Hub {
	if r.met == nil {
		return nil
	}
	return r.met.hub
}

// Batch-cut reasons (see scheduleBatch / tryBatchTimer).
const (
	cutReasonSize = iota
	cutReasonTimeout
	cutReasonFast
)

// obsCut counts one proposed batch against the active cut reason.
func (r *Replica) obsCut(txs int) {
	m := r.met
	if m == nil {
		return
	}
	m.batchTxs.ObserveSize(int64(txs))
	switch r.cutReason {
	case cutReasonTimeout:
		m.cutTimeout.Inc()
	case cutReasonFast:
		m.cutFast.Inc()
	default:
		m.cutSize.Inc()
	}
}

// tryBatchTimer is the batch timer's callback: a cut it triggers is a
// cadence cut (or an adaptive fast-path cut), not a size cut.
func (r *Replica) tryBatchTimer() {
	if r.batchTimerFast {
		r.cutReason = cutReasonFast
	} else {
		r.cutReason = cutReasonTimeout
	}
	r.tryBatch()
	r.cutReason = cutReasonSize
}

// obsCommitted marks e's commit quorum: the commit-latency observation
// (since pre-prepare accept) and the per-sequence trace event. Called
// everywhere e.committed flips true on the live path (vote quorum, AHLR
// leader certificate, AHLR follower QC).
func (r *Replica) obsCommitted(e *entry) {
	m := r.met
	if m == nil {
		return
	}
	if e.obsTS != 0 {
		m.commitLatency.Observe(m.hub.Now() - e.obsTS)
	}
	n := 0
	if e.block != nil {
		n = len(e.block.Txs)
	}
	m.hub.RecordSeq(m.node, obs.StageCommitQuorum, e.seq, int64(n))
}

// obsOccupancy publishes the pipeline depth in use: sequences assigned
// but not yet executed locally. Meaningful on the leader; ~0 elsewhere.
func (r *Replica) obsOccupancy() {
	m := r.met
	if m == nil {
		return
	}
	var occ int64
	if r.seqAssign > r.executedThrough {
		occ = int64(r.seqAssign - r.executedThrough)
	}
	m.occupancy.Set(occ)
	m.occupancyPeak.SetMax(occ)
}
