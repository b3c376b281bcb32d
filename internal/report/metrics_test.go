package report

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestMetricExtraction(t *testing.T) {
	tbl := &bench.TableData{
		Cols: []string{"mode", "x", "AHL+"},
		Rows: [][]string{
			{"N", "7", "100"},
			{"N", "19", "250"},
			{"N", "31", "-"}, // livelocked: must be skipped, not zero
			{"f", "1", "9999"},
		},
	}
	m := &Metric{Name: "t", Col: "AHL+", Where: []Cond{{Col: "mode", Equals: "N"}}, Agg: "max", Unit: "tps"}
	v, ok := m.Extract(tbl)
	if !ok || v != 250 {
		t.Fatalf("Extract = %v, %v; want 250", v, ok)
	}
	spark, label, ok := m.Sparkline(tbl)
	if !ok || len([]rune(spark)) != 2 || !strings.Contains(label, "2 points") {
		t.Fatalf("sparkline = %q (%q), %v", spark, label, ok)
	}

	if _, ok := (&Metric{Name: "t", Col: "missing"}).Extract(tbl); ok {
		t.Fatal("extracted from a missing column")
	}
	ratio := &Metric{Name: "r", Col: "AHL+", DivBy: "x", Where: []Cond{{Col: "mode", Equals: "N"}}, Agg: "min"}
	if v, ok := ratio.Extract(tbl); !ok || v < 13.15 || v > 13.17 {
		t.Fatalf("ratio extract = %v, %v; want ~13.16 (250/19)", v, ok)
	}
}

func TestParseCell(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"123", 123, true},
		{"1.5", 1.5, true},
		{"1.05e-05", 1.05e-05, true},
		{"483ms", 483, true},
		{"1.2s", 1200, true},
		{"55.3µs", 0.0553, true},
		{"stalled", 0, false},
		{"-", 0, false},
		{">N", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := parseCell(c.in)
		if ok != c.ok || (ok && !approx(got, c.want)) {
			t.Fatalf("parseCell(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

// Every registered experiment must be keyed to a paper artifact, and
// every declared key metric must actually extract from the checked-in
// smoke baseline — this pins the targets registry, the experiment
// registry, and BENCH_smoke.json together so none can drift silently.
// (Adding an experiment therefore requires regenerating the baseline,
// which the exact smoke-table gate in internal/bench requires anyway.)
func TestTargetsCoverRegistryAndBaseline(t *testing.T) {
	for _, e := range bench.All() {
		tgt, ok := targets[e.ID]
		if !ok {
			t.Errorf("experiment %s has no paper target entry", e.ID)
			continue
		}
		if tgt.Artifact == "" || tgt.Artifact == "—" {
			t.Errorf("experiment %s has no paper artifact key", e.ID)
		}
	}

	base, err := Load("../../BENCH_smoke.json")
	if err != nil {
		t.Fatalf("checked-in smoke baseline unreadable: %v", err)
	}
	if base.Scale != "smoke" {
		t.Fatalf("baseline is %q tier, want smoke", base.Scale)
	}
	for _, e := range bench.All() {
		entry, ok := findEntry(base, e.ID)
		if !ok || entry.Table == nil {
			t.Errorf("baseline missing experiment %s (regenerate BENCH_smoke.json)", e.ID)
			continue
		}
		m := TargetFor(e.ID).Metric
		if m == nil {
			continue
		}
		if _, ok := m.Extract(entry.Table); !ok {
			t.Errorf("%s: key metric %q does not extract from the baseline table (cols %v)",
				e.ID, m.Name, entry.Table.Cols)
		}
	}
}
