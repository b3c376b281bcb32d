package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	accounts := accountNames(256)
	for _, spec := range liveSpecs {
		a := newGen(42, accounts, spec.cross, spec.zipf)
		b := newGen(42, accounts, spec.cross, spec.zipf)
		c := newGen(43, accounts, spec.cross, spec.zipf)
		same := true
		for i := 0; i < 5000; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if x != y {
				t.Fatalf("op %d differs under one seed: %+v vs %+v", i, x, y)
			}
			same = same && x == z
			if x.From == x.To || (x.Cross != (x.FromShard != x.Shard)) || x.Amount < 1 || x.Amount > 50 {
				t.Fatalf("op %d malformed: %+v", i, x)
			}
		}
		if same {
			t.Fatal("seeds 42 and 43 gave the same sequence")
		}
	}
}

// lastLine is the JSON object a run prints last.
type lastLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func runAndParse(t *testing.T, workload string, seconds int, traced bool) (string, lastLine) {
	t.Helper()
	rep, err := run(workload, 1, seconds, traced, "..", t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, out)
	}
	if last.Attempted < 1 {
		t.Errorf("%s: attempted %d", workload, last.Attempted)
	}
	if !strings.Contains(out, "host nproc=") {
		t.Errorf("%s: no host record\n%s", workload, out)
	}
	return out, last
}

// printed reports whether out has the line "metric <name> <value> <unit>".
func printed(out string, d metricDef) bool {
	re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.name) + ` \S+ ` + regexp.QuoteMeta(d.unit) + `$`)
	return re.MatchString(out)
}

// wantMetrics checks that out prints every metric of defs with its unit
// and that the last line carries exactly defs.
func wantMetrics(t *testing.T, workload, out string, last lastLine, defs []metricDef) {
	t.Helper()
	if len(last.Metrics) != len(defs) {
		t.Errorf("%s: last line has %d metrics, want %d", workload, len(last.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s: last line lacks %s [%s]: %+v", workload, d.name, d.unit, m)
		}
		if !printed(out, d) {
			t.Errorf("%s: no line for %s [%s]", workload, d.name, d.unit)
		}
	}
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live clusters")
	}
	writes := []metricDef{{"commit_tps", "1/s"}, {"commit_p50_ms", "ms"}, {"commit_p99_ms", "ms"}, {"failed_ratio", "ratio"}}
	reads := []metricDef{{"read_qps", "1/s"}, {"read_p50_ms", "ms"}, {"read_p99_ms", "ms"}, {"read_failed_ratio", "ratio"}}
	own := map[string][]metricDef{
		"transfer-2pc":     writes,
		"local-write":      writes,
		"read-under-write": append(append([]metricDef(nil), writes...), reads...),
		"sim-figures":      {{"sim_wall_s", "s"}},
	}
	for _, w := range workloads {
		out, last := runAndParse(t, w, 5, false)
		wantMetrics(t, w, out, last, endToEnd)
		for _, d := range own[w] {
			if !printed(out, d) {
				t.Errorf("%s: no line for %s [%s]\n%s", w, d.name, d.unit, out)
			}
		}
		for name, m := range last.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
		// read-under-write may return a wrong sweep (a known defect of
		// the program); it must then fail the run, not pass it.
		if w != "read-under-write" && (!last.Correct || last.Failed != 0) {
			t.Errorf("%s: correct=%v failed=%d\n%s", w, last.Correct, last.Failed, out)
		}
		if !last.Correct && last.Failed == 0 {
			t.Errorf("%s: incorrect run with no failed operation", w)
		}
	}
}

func TestTracedRunReportsLayersAndOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live clusters")
	}
	for _, w := range []string{"transfer-2pc", "read-under-write"} {
		out, last := runAndParse(t, w, 2, true)
		wantMetrics(t, w, out, last, perLayer)
		if !strings.Contains(out, "note trace written to ") {
			t.Errorf("%s: trace file not reported\n%s", w, out)
		}
		nonzero := []string{"pbft.commit_ms_p50", "transport.frames_per_commit", "client.submit_wait_us_p50",
			"storage.wal_append_us_p50", "self.write_ms", "self.client.submit_ms"}
		if w == "transfer-2pc" {
			nonzero = append(nonzero, "txn.lock_hold_ms_p50")
		} else {
			nonzero = append(nonzero, "query.attempt_ms_p50", "self.sweep_ms")
		}
		for _, name := range nonzero {
			if last.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, last.Metrics[name].Value)
			}
		}
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	conv := func(defs []metricDef) []def {
		var out []def
		for _, d := range defs {
			out = append(out, def{d.name, d.unit})
		}
		return out
	}
	if !reflect.DeepEqual(spec.EndToEnd, conv(endToEnd)) {
		t.Errorf("end_to_end %v, want %v", spec.EndToEnd, conv(endToEnd))
	}
	if !reflect.DeepEqual(spec.PerLayer, conv(perLayer)) {
		t.Errorf("per_layer %v, want %v", spec.PerLayer, conv(perLayer))
	}
	for _, w := range spec.Workloads {
		found := false
		for _, known := range workloads {
			found = found || w.Name == known
		}
		if !found {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}
