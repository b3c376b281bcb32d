package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// This file is the simulator's regression gate: every registered
// experiment — including the faults-* schedules, whose whole point is to
// attack ordering — is rendered at smoke scale, and each table must equal
// its payload in the checked-in BENCH_smoke.json byte for byte. The
// tables fold in committed throughput, abort rates, view changes,
// unresolved counts and lock residue, so any drift in ordering, execution
// or reply timing shows up as a changed cell. The simulator is
// deterministic, so there is no tolerance; a change that moves a table on
// purpose regenerates the baseline.

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

// assertTablesMatchBaseline renders every experiment whose id passes
// keep at smoke scale and compares each table's JSON payload to
// BENCH_smoke.json.
func assertTablesMatchBaseline(t *testing.T, keep func(id string) bool) {
	t.Helper()
	want := smokeBaseline(t)
	matched := 0
	for _, e := range All() {
		if !keep(e.ID) {
			continue
		}
		matched++
		got, err := json.Marshal(e.Run(Smoke()).Data())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[e.ID]) {
			t.Errorf("%s table differs from BENCH_smoke.json; if the change is intended, regenerate the baseline:\n"+
				"  shardsim -exp all -scale smoke -label smoke-baseline -json BENCH_smoke.json\n"+
				"  shardsim -report BENCH_smoke.json -o EXPERIMENTS.md\n got: %s\nwant: %s",
				e.ID, got, want[e.ID])
		}
	}
	if matched == 0 {
		t.Fatal("experiment filter matched nothing")
	}
}

// TestFaultScheduleTablesMatchBaseline checks the fault-injection family
// (crashes, partitions, link faults, Byzantine behaviors, 2PC coordinator
// failures) against BENCH_smoke.json.
func TestFaultScheduleTablesMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping a full fault-schedule pass in -short mode")
	}
	assertTablesMatchBaseline(t, func(id string) bool { return strings.HasPrefix(id, "faults-") })
}

// TestSmokeTablesMatchBaseline checks every remaining registered
// experiment at smoke scale against BENCH_smoke.json.
func TestSmokeTablesMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping a full smoke-tier pass in -short mode")
	}
	assertTablesMatchBaseline(t, func(id string) bool { return !strings.HasPrefix(id, "faults-") })
}
