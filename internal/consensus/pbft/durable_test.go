package pbft

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/storage"
)

// durableTestCluster builds a committee and attaches an in-memory durable
// backend to replica 0, then runs enough traffic to pass a stable
// checkpoint so the replica has persisted at least one snapshot.
func durableTestCluster(t *testing.T) (*testCluster, *Replica, *storage.Memory) {
	t.Helper()
	tc := newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.BatchSize = 2
		o.CheckpointEvery = 2
		o.Window = 8
	})
	r := tc.bc.Replicas[0]
	mem := storage.NewMemory()
	r.durable = mem
	tc.engine.Schedule(0, func() { tc.submit(0, 20) })
	tc.run(20 * time.Second)
	if r.stableSnapSeq == 0 {
		t.Fatal("no stable checkpoint reached; cannot exercise durable snapshots")
	}
	return tc, r, mem
}

// replayBlock builds a minimal decided block ReplayDecided will accept
// (the ledger validates the tx root on append).
func replayBlock(id uint64) *chain.Block {
	txs := []chain.Tx{{ID: id, Chaincode: "kvstore", Fn: "put", Args: []string{"rk", "rv"}}}
	return &chain.Block{Header: chain.Header{TxRoot: chain.TxRoot(txs)}, Txs: txs}
}

// TestDurableSnapshotExecutionAheadOfCheckpoint is the restart-loop
// regression: a checkpoint quorum can form for seq while the replica has
// already executed further blocks that left the state digest unchanged
// (all their transactions deduped or failed), so the snapshot is captured
// with executedThrough > seq. The durable snapshot must record the true
// execution watermark — restoring it as if execution stopped at seq makes
// the replayed WAL tail (which resumes at executedThrough+1) look like a
// gap, and the node fails with ErrCorrupt on every boot.
func TestDurableSnapshotExecutionAheadOfCheckpoint(t *testing.T) {
	_, r, mem := durableTestCluster(t)

	// The reviewer scenario: execution ran two no-op blocks past the
	// stable checkpoint before the quorum formed.
	seq := r.stableSnapSeq
	r.executedThrough = seq + 2
	r.persistDurableSnapshot()

	snap, _, err := mem.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if snap == nil || snap.Seq != seq || snap.ExecutedThrough != seq+2 {
		t.Fatalf("persisted snapshot = %+v, want Seq=%d ExecutedThrough=%d", snap, seq, seq+2)
	}

	// Boot a fresh replica from it: the crash-restart path.
	tc2 := newTestCluster(t, 4, VariantHL, nil, func(o *Options) {
		o.BatchSize = 2
		o.CheckpointEvery = 2
		o.Window = 8
	})
	r2 := tc2.bc.Replicas[0]
	if _, err := r2.RestoreDurableSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r2.executedThrough != seq+2 {
		t.Fatalf("restored executedThrough = %d, want %d", r2.executedThrough, seq+2)
	}
	if r2.h != seq {
		t.Fatalf("restored stable checkpoint = %d, want %d", r2.h, seq)
	}
	// A record at or below the watermark (seen when replaying from an
	// older fallback snapshot) is skipped, not an error.
	if err := r2.ReplayDecided(seq+1, replayBlock(9001)); err != nil {
		t.Fatalf("replay of already-covered seq %d: %v", seq+1, err)
	}
	// The WAL tail resumes right after the watermark; before the fix this
	// was rejected as a gap ("resumes at seq+3, want seq+1") and the node
	// could never boot again.
	if err := r2.ReplayDecided(seq+3, replayBlock(9002)); err != nil {
		t.Fatalf("replay of WAL tail at seq %d: %v", seq+3, err)
	}
	if r2.executedThrough != seq+3 {
		t.Fatalf("executedThrough after tail replay = %d, want %d", r2.executedThrough, seq+3)
	}
}

// TestDurableSnapshotCoversExecutingBlock pins the companion window: a
// decided block is WAL-appended before it executes, so when a snapshot is
// persisted mid-execution that block's only record sits below the replay
// floor the snapshot establishes while its effects are absent from the
// captured state. persistDurableSnapshot must re-append it above the
// floor, or recovery replays a tail that starts one block late.
func TestDurableSnapshotCoversExecutingBlock(t *testing.T) {
	_, r, mem := durableTestCluster(t)

	next := r.executedThrough + 1
	e := &entry{seq: next, block: replayBlock(9100)}
	if !r.appendDecided(e) {
		t.Fatal("appendDecided failed")
	}
	r.executing, r.execEntry = true, e
	r.persistDurableSnapshot()
	r.executing, r.execEntry = false, nil

	snap, tail, err := mem.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if snap == nil || snap.ExecutedThrough != next-1 {
		t.Fatalf("snapshot = %+v, want ExecutedThrough=%d", snap, next-1)
	}
	if len(tail) != 1 || tail[0].Kind != storage.KindBlock || tail[0].Seq != next {
		t.Fatalf("WAL tail above snapshot = %+v, want the in-flight block at seq %d", tail, next)
	}
}

// requireExecIDs checks the incremental id bookkeeping against the dedup
// set it summarizes: stableExecIDs is strictly increasing, and merging in
// the ids executed since the last capture gives exactly the sorted
// dedup set — the list the capture used to rebuild by sorting the set.
func requireExecIDs(t *testing.T, r *Replica) {
	t.Helper()
	for i := 1; i < len(r.stableExecIDs); i++ {
		if r.stableExecIDs[i] <= r.stableExecIDs[i-1] {
			t.Fatalf("replica %d: stableExecIDs not strictly increasing at %d: %v", r.self(), i, r.stableExecIDs)
		}
	}
	want := slices.Sorted(maps.Keys(r.executedTxIDs))
	got := mergeExecIDs(r.stableExecIDs, slices.Clone(r.newExecIDs))
	if !slices.Equal(got, want) {
		t.Fatalf("replica %d: stable ids + new ids = %v, dedup set = %v", r.self(), got, want)
	}
}

func TestStableExecIDsTrackDedupSet(t *testing.T) {
	tc, r, mem := durableTestCluster(t)
	for _, rep := range tc.bc.Replicas {
		requireExecIDs(t, rep)
	}
	snap, _, err := mem.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(snap.OKIDs) || !slices.IsSorted(snap.FailIDs) || len(snap.OKIDs)+len(snap.FailIDs) == 0 {
		t.Fatalf("persisted OKIDs %v FailIDs %v: want sorted, non-empty", snap.OKIDs, snap.FailIDs)
	}

	// A state response's id list is not covered by the checkpoint digest:
	// an unsorted list with duplicates must not break the merge.
	r.installSnapshot(r.stableSnapSeq, r.stableView.Snapshot(), r.stableCert, []uint64{9, 3, 9, 1})
	if want := []uint64{1, 3, 9}; !slices.Equal(r.stableExecIDs, want) {
		t.Fatalf("stableExecIDs after install = %v, want %v", r.stableExecIDs, want)
	}
	requireExecIDs(t, r)

	// Crash, view change and catch-up on every replica.
	crash, _ := runLeaderCrashScenario(t, 30*time.Second)
	for _, rep := range crash.bc.Replicas {
		requireExecIDs(t, rep)
	}
}

func TestMergeExecIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 50; n++ {
		set := make(map[uint64]bool)
		var base, fresh []uint64
		for len(set) < n {
			id := uint64(rng.Intn(4 * (n + 1)))
			if set[id] {
				continue
			}
			set[id] = true
			if rng.Intn(2) == 0 {
				base = append(base, id)
			} else {
				fresh = append(fresh, id)
			}
		}
		slices.Sort(base)
		before := slices.Clone(base)
		got := mergeExecIDs(base, fresh)
		if want := slices.Sorted(maps.Keys(set)); !slices.Equal(got, want) {
			t.Fatalf("merge of %v and %v = %v, want %v", before, fresh, got, want)
		}
		if !slices.Equal(base, before) {
			t.Fatalf("merge modified its base: %v, was %v", base, before)
		}
	}
	sorted := []uint64{1, 2, 5}
	if got := sortedUnique(sorted); &got[0] != &sorted[0] {
		t.Error("sortedUnique copied an already sorted list")
	}
	if got := sortedUnique([]uint64{5, 1, 5, 2, 1}); !slices.Equal(got, []uint64{1, 2, 5}) {
		t.Errorf("sortedUnique = %v, want [1 2 5]", got)
	}
}
