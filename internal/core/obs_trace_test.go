package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus/pbft"
	"repro/internal/obs"
	"repro/internal/tee"
	"repro/internal/txn"
)

// runInstrumentedSim drives a fixed cross-shard workload through an
// obs-instrumented simulation and returns the exported trace and
// registry snapshot as bytes.
func runInstrumentedSim(t *testing.T, workers int) (trace, snap []byte) {
	t.Helper()
	s := NewSystem(Config{
		Seed:        7,
		Shards:      3,
		ShardSize:   4,
		RefSize:     4,
		Variant:     pbft.VariantAHLPlus,
		Clients:     2,
		SendReplies: true,
		Costs:       tee.FreeCosts(),
		Tune:        func(o *pbft.Options) { o.ExecWorkers = workers },
		Obs:         true,
	})
	s.Seed(20, 100)
	from, to := findCrossShardPair(s, 20)

	done := 0
	s.Engine.Schedule(0, func() {
		for i := 0; i < 6; i++ {
			d := s.PaymentDTx(fmt.Sprintf("trace%d", i), from, to, 1)
			s.Client(i%2).SubmitDistributed(d, func(r txn.Result) { done++ })
		}
	})
	s.Run(120 * time.Second)
	if done != 6 {
		t.Fatalf("only %d/6 transactions completed", done)
	}

	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, s.Obs.Trace.Events()); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(s.Obs.Reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), raw
}

// TestSimTraceDeterministic pins the obs clock seam: with the engine
// clock injected, the exported trace must be byte-identical across runs
// AND across executor worker counts (trace events are recorded on the
// engine goroutine only, so parallel execution cannot reorder them).
// Registry snapshots must be byte-identical across runs of the same
// configuration; across worker counts only the parexec routing counters
// may differ, so they are compared per-configuration.
func TestSimTraceDeterministic(t *testing.T) {
	trace1a, snap1a := runInstrumentedSim(t, 1)
	trace1b, snap1b := runInstrumentedSim(t, 1)
	trace4a, snap4a := runInstrumentedSim(t, 4)
	trace4b, snap4b := runInstrumentedSim(t, 4)

	if len(trace1a) == 0 {
		t.Fatal("instrumented sim recorded no trace events")
	}
	if !bytes.Equal(trace1a, trace1b) {
		t.Error("trace differs across identical runs (workers=1)")
	}
	if !bytes.Equal(trace4a, trace4b) {
		t.Error("trace differs across identical runs (workers=4)")
	}
	if !bytes.Equal(trace1a, trace4a) {
		t.Error("trace differs across worker counts (1 vs 4)")
	}
	if !bytes.Equal(snap1a, snap1b) {
		t.Error("snapshot differs across identical runs (workers=1)")
	}
	if !bytes.Equal(snap4a, snap4b) {
		t.Error("snapshot differs across identical runs (workers=4)")
	}

	// The trace must contain consensus and 2PC lifecycle stages, and the
	// span pairing table must derive at least one complete span from it.
	events, err := obs.ParseTraceJSON(bytes.NewReader(trace1a))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[obs.Stage]bool)
	for _, e := range events {
		seen[e.Stage] = true
	}
	for _, st := range []obs.Stage{
		obs.StagePrePrepare, obs.StageCommitQuorum,
		obs.StageExecStart, obs.StageExecEnd,
		obs.Stage2PCBegin, obs.Stage2PCPrepare,
		obs.Stage2PCVote, obs.Stage2PCDone,
	} {
		if !seen[st] {
			t.Errorf("trace missing stage %s", st)
		}
	}
	spans := obs.SpanDurations(events)
	if len(spans["consensus"]) == 0 {
		t.Error("no consensus spans derived from the trace")
	}
	if len(spans["2pc"]) == 0 {
		t.Error("no 2pc spans derived from the trace")
	}
}

// TestSimSnapshotHasStageHistograms asserts the instrumented sim
// populates the headline metrics the scrape table renders.
func TestSimSnapshotHasStageHistograms(t *testing.T) {
	_, raw := runInstrumentedSim(t, 1)
	snap, err := obs.ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"pbft_commit_latency", "pbft_exec_latency",
		"txn_2pc_prepare_wait", "txn_2pc_lock_hold", "txn_2pc_commit_latency",
	} {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			t.Errorf("histogram %s empty in instrumented sim", name)
		}
	}
	if snap.Counters["txn_2pc_commit_total"] == 0 {
		t.Error("txn_2pc_commit_total = 0, want > 0")
	}
	if snap.Gauges["pbft_pipeline_occupancy_peak"] == 0 {
		t.Error("pbft_pipeline_occupancy_peak = 0, want > 0")
	}
}
