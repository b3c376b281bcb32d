package bench

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus/pbft"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/tee"
	"repro/internal/workload"
)

// This file is the determinism harness that pins the conflict-aware
// parallel executor to the serial execution semantics: every registered
// experiment — including the faults-* schedules, whose whole point is to
// attack ordering — is rendered at smoke scale with parallel execution
// off and on, and the table text must be byte-identical. Because the
// tables fold in committed throughput, abort rates, view changes,
// unresolved counts and lock residue, any divergence in execution order,
// write-set content or reply timing shows up as a text diff. The
// state-level test below additionally compares the full final key/value
// state (so SmallBank balances) of every shard quorum head.
//
// The serial pass doubles as the simulator's regression gate: each table
// must equal its payload in the checked-in BENCH_smoke.json byte for
// byte. The simulator is deterministic, so there is no tolerance; a
// change that moves a table on purpose regenerates the baseline.

// smokeOutputs renders every experiment whose id passes keep at smoke
// scale with the package-wide parallel-execution worker count forced to
// workers, and returns the table text and its JSON payload, keyed by
// experiment id.
func smokeOutputs(t *testing.T, keep func(id string) bool, workers int) (text map[string]string, data map[string][]byte) {
	pbft.SetDefaultExecWorkers(workers)
	defer pbft.SetDefaultExecWorkers(0)
	text, data = make(map[string]string), make(map[string][]byte)
	for _, e := range All() {
		if !keep(e.ID) {
			continue
		}
		tbl := e.Run(Smoke())
		var sb strings.Builder
		tbl.Fprint(&sb)
		text[e.ID] = sb.String()
		b, err := json.Marshal(tbl.Data())
		if err != nil {
			t.Fatal(err)
		}
		data[e.ID] = b
	}
	return text, data
}

// smokeBaseline reads the checked-in smoke tables as JSON payloads keyed
// by experiment id.
func smokeBaseline(t *testing.T) map[string][]byte {
	rep, err := ReadReportFile("../../BENCH_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for _, e := range rep.Experiments {
		if e.Table == nil {
			continue
		}
		b, err := json.Marshal(e.Table)
		if err != nil {
			t.Fatal(err)
		}
		want[e.ID] = b
	}
	return want
}

func assertEquivalentOutputs(t *testing.T, keep func(id string) bool) {
	t.Helper()
	want := smokeBaseline(t)
	serial, serialData := smokeOutputs(t, keep, 1)
	parallel, _ := smokeOutputs(t, keep, 4)
	if len(serial) == 0 {
		t.Fatal("experiment filter matched nothing")
	}
	for _, e := range All() {
		if !keep(e.ID) {
			continue
		}
		if !bytes.Equal(serialData[e.ID], want[e.ID]) {
			t.Errorf("%s table differs from BENCH_smoke.json; if the change is intended, regenerate the baseline:\n"+
				"  shardsim -exp all -scale smoke -label smoke-baseline -json BENCH_smoke.json\n"+
				"  shardsim -report BENCH_smoke.json -o EXPERIMENTS.md\n got: %s\nwant: %s",
				e.ID, serialData[e.ID], want[e.ID])
		}
		if serial[e.ID] != parallel[e.ID] {
			t.Errorf("%s diverges under parallel execution:\n--- serial ---\n%s--- 4 workers ---\n%s",
				e.ID, serial[e.ID], parallel[e.ID])
		}
	}
}

// TestParallelExecEquivalenceFaultSchedules runs the fault-injection
// family (crashes, partitions, link faults, Byzantine behaviors, 2PC
// coordinator failures) serial vs parallel, and checks the serial tables
// against BENCH_smoke.json.
func TestParallelExecEquivalenceFaultSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two full fault-schedule passes in -short mode")
	}
	assertEquivalentOutputs(t, func(id string) bool { return strings.HasPrefix(id, "faults-") })
}

// TestParallelExecEquivalenceSmokeTier runs every remaining registered
// experiment serial vs parallel at smoke scale, and checks the serial
// tables against BENCH_smoke.json.
func TestParallelExecEquivalenceSmokeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two full smoke-tier passes in -short mode")
	}
	assertEquivalentOutputs(t, func(id string) bool { return !strings.HasPrefix(id, "faults-") })
}

// finalStates runs one faulty sharded SmallBank deployment (follower
// crash mid-run plus 5% message drop) with the given worker count and
// returns every shard quorum head's full key/value state, rendered as
// text, plus its store digest.
func finalStates(workers int) []string {
	pbft.SetDefaultExecWorkers(workers)
	defer pbft.SetDefaultExecWorkers(0)
	const shards, per, ref = 3, 4, 4
	sys := core.NewSystem(core.Config{
		Seed: 99, Shards: shards, ShardSize: per, RefSize: ref,
		Variant: pbft.VariantAHLPlus, Clients: shards, SendReplies: true,
		Costs: tee.DefaultCosts(),
	})
	sys.Seed(40*shards, 1_000_000)
	inj := sys.InjectFaults(faults.Config{Seed: 99, DropRate: 0.05})
	for _, nodes := range sys.Topology.ShardNodes {
		inj.CrashFor(nodes[len(nodes)-1], 5*time.Second, 10*time.Second)
	}
	gen := workload.NewSmallBankGen(rand.New(rand.NewSource(99+17)), 40*shards, 0)
	drv := &workload.ClosedLoopShardedDriver{Sys: sys, Gen: gen, Outstanding: 8}
	window := 20 * time.Second
	drv.Start(window)
	sys.Run(window + 40*time.Second)

	var states []string
	for _, bc := range sys.ShardCommittees {
		st := bc.MostExecuted().Store()
		var sb strings.Builder
		for it := st.Head().Iter("", ""); ; {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.Write(v)
			sb.WriteByte('\n')
		}
		sb.WriteString(st.Digest().String())
		states = append(states, sb.String())
	}
	return states
}

// TestParallelExecStateEquivalence compares the byte-exact final state
// (every key, every SmallBank balance, the incremental store digest) of a
// faulty sharded run executed serially vs on 4 workers.
func TestParallelExecStateEquivalence(t *testing.T) {
	serial := finalStates(1)
	parallel := finalStates(4)
	if len(serial) != len(parallel) {
		t.Fatalf("shard count differs: %d vs %d", len(serial), len(parallel))
	}
	for s := range serial {
		if serial[s] != parallel[s] {
			t.Errorf("shard %d final state diverges under parallel execution:\n--- serial ---\n%s\n--- 4 workers ---\n%s",
				s, serial[s], parallel[s])
		}
	}
}
