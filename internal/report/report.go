// Package report turns BENCH_*.json benchmark reports (schema:
// internal/bench/report.go) into the repository's reproduction
// artifacts:
//
//   - Render writes EXPERIMENTS.md: every experiment keyed to its paper
//     table/figure, the full result table, an ASCII sparkline of the
//     experiment's key series, and a paper-target column showing how far
//     the simulated numbers are from the paper's headline values.
//   - Given several reports, Render appends a trajectory table of the
//     key metrics across sessions, so two runs can be read side by side.
//
// The package does not gate anything: the simulator is deterministic,
// so the gate is exact equality of every smoke table with the
// checked-in BENCH_smoke.json (internal/bench's equivalence test and
// CI's EXPERIMENTS.md diff). The package consumes only report JSON,
// never the simulator, so any historical BENCH_*.json remains
// renderable as the harness evolves. Rendered output depends only on
// the deterministic parts of a report (tier, scale parameters, table
// content); wall-clock times, timestamps, and machine stamps are
// deliberately excluded, which is why regenerating EXPERIMENTS.md from
// a fresh same-revision run is a no-op diff.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/bench"
)

// Load reads one BENCH_*.json report.
func Load(path string) (*bench.Report, error) {
	r, err := bench.ReadReportFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return r, nil
}

// LoadAll reads several reports, preserving order.
func LoadAll(paths ...string) ([]*bench.Report, error) {
	out := make([]*bench.Report, 0, len(paths))
	for _, p := range paths {
		r, err := Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Render writes figure-keyed markdown for one or more reports. With a
// single report it produces EXPERIMENTS.md; with several it appends a
// cross-report trajectory section comparing key metrics across sessions
// (oldest first).
func Render(w io.Writer, reports ...*bench.Report) error {
	if len(reports) == 0 {
		return fmt.Errorf("report: nothing to render")
	}
	fmt.Fprintf(w, "# EXPERIMENTS\n\n")
	fmt.Fprintf(w, "Generated by `shardsim -report` from machine-readable benchmark\n")
	fmt.Fprintf(w, "reports — do not edit by hand. Regenerate with:\n\n")
	fmt.Fprintf(w, "```\nshardsim -exp all -scale %s -json out.json\nshardsim -report out.json -o EXPERIMENTS.md\n```\n\n",
		firstNonEmpty(reports[0].Scale, "smoke"))
	fmt.Fprintf(w, "The experiments run on a deterministic discrete-event simulator, so\n")
	fmt.Fprintf(w, "absolute numbers differ from the paper's hardware testbed; the paper\n")
	fmt.Fprintf(w, "columns below key each artifact to its figure/table and track how far\n")
	fmt.Fprintf(w, "the reproduction is from the paper's headline values where the paper\n")
	fmt.Fprintf(w, "states one. Table content is identical on any machine at any worker\n")
	fmt.Fprintf(w, "count for a given scale tier.\n\n")

	for _, r := range reports {
		renderSession(w, r)
	}
	if len(reports) > 1 {
		renderTrajectory(w, reports)
	}
	return nil
}

func renderSession(w io.Writer, r *bench.Report) {
	// The session label is deliberately omitted: EXPERIMENTS.md must be
	// byte-identical however the generating run was labeled, so that
	// regenerating it is a no-op diff (labels still appear in the
	// trajectory table, where distinguishing runs is the point).
	fmt.Fprintf(w, "## Session — %s tier\n\n", firstNonEmpty(r.Scale, "unknown"))
	if p := r.ScaleParams; p != nil {
		fmt.Fprintf(w, "Committee cap N=%d, %.0fs measurement window, %d-node system cap.\n\n",
			p.MaxN, p.DurationMS/1000, p.Nodes)
	}

	entries := sortedEntries(r)
	renderIndex(w, entries)
	for _, e := range entries {
		renderExperiment(w, e)
	}
}

// sortedEntries returns the report's table-bearing entries in id order
// (entries without table payloads, e.g. aggregate timings, are listed in
// the index only).
func sortedEntries(r *bench.Report) []bench.ExperimentEntry {
	entries := append([]bench.ExperimentEntry(nil), r.Experiments...)
	sort.SliceStable(entries, func(i, j int) bool {
		return experimentSortKey(entries[i].ID) < experimentSortKey(entries[j].ID)
	})
	return entries
}

// experimentSortKey orders figN numerically (fig2 < fig10) and groups
// tables, figures and equations.
func experimentSortKey(id string) string {
	for _, prefix := range []string{"fig", "table", "eq"} {
		if strings.HasPrefix(id, prefix) {
			num, suffix := splitNum(id[len(prefix):])
			return fmt.Sprintf("%s%04d%s", prefix, num, suffix)
		}
	}
	return id
}

func splitNum(s string) (int, string) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	n := 0
	for _, c := range s[:i] {
		n = n*10 + int(c-'0')
	}
	return n, s[i:]
}

// renderIndex writes the experiment catalog: every experiment keyed to
// its paper artifact with its key metric and paper-target delta.
func renderIndex(w io.Writer, entries []bench.ExperimentEntry) {
	fmt.Fprintf(w, "### Experiment index\n\n")
	fmt.Fprintf(w, "| experiment | paper artifact | key metric | this run | paper target | %% of paper |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
	for _, e := range entries {
		t := TargetFor(e.ID)
		metric, value := "—", "—"
		paper, pct := "—", "—"
		if t.Static {
			metric = "reproduced by construction"
			pct = "100%"
		}
		if t.Metric != nil && e.Table != nil {
			metric = t.Metric.Name
			if v, ok := t.Metric.Extract(e.Table); ok {
				value = formatValue(v, t.Metric.Unit)
				if t.Paper != 0 {
					paper = formatValue(t.Paper, t.Metric.Unit)
					pct = paperDelta(v, t)
				}
			}
		}
		if t.Paper == 0 && t.PaperNote != "" && !t.Static {
			paper = "shape target"
		}
		fmt.Fprintf(w, "| [%s](#%s) | %s | %s | %s | %s | %s |\n",
			e.ID, anchor(e.ID, t), t.Artifact, metric, value, paper, pct)
	}
	fmt.Fprintf(w, "\n")
}

func anchor(id string, t Target) string {
	// GitHub-style anchor for "## <id> — <artifact> · <title>" headings:
	// lowercase, spaces to dashes, punctuation dropped.
	s := strings.ToLower(id + " — " + t.Artifact)
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteRune(c)
		case c == ' ' || c == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

func renderExperiment(w io.Writer, e bench.ExperimentEntry) {
	t := TargetFor(e.ID)
	fmt.Fprintf(w, "## %s — %s\n\n", e.ID, t.Artifact)
	if e.Title != "" {
		fmt.Fprintf(w, "%s.\n\n", strings.TrimSuffix(e.Title, "."))
	}
	if e.Table == nil {
		fmt.Fprintf(w, "_No table payload recorded for this entry (%d rows)._\n\n", e.Rows)
		return
	}

	if t.Metric != nil {
		if v, ok := t.Metric.Extract(e.Table); ok {
			fmt.Fprintf(w, "**Key metric:** %s = **%s**", t.Metric.Name, formatValue(v, t.Metric.Unit))
			if t.Paper != 0 {
				if t.Floor {
					fmt.Fprintf(w, " · paper: ≥%s → **%s**", formatValue(t.Paper, t.Metric.Unit), paperDelta(v, t))
				} else {
					fmt.Fprintf(w, " · paper: %s → **%s of paper**",
						formatValue(t.Paper, t.Metric.Unit), paperDelta(v, t))
				}
			}
			fmt.Fprintf(w, "\n\n")
		}
		if spark, label, ok := t.Metric.Sparkline(e.Table); ok {
			fmt.Fprintf(w, "**Series** (%s): `%s`\n\n", label, spark)
		}
	}
	if t.PaperNote != "" {
		fmt.Fprintf(w, "**Paper target:** %s\n\n", t.PaperNote)
	}

	writeMarkdownTable(w, e.Table)
	for _, n := range e.Table.Notes {
		fmt.Fprintf(w, "> %s\n", n)
	}
	if len(e.Table.Notes) > 0 {
		fmt.Fprintf(w, "\n")
	}
}

func writeMarkdownTable(w io.Writer, t *bench.TableData) {
	fmt.Fprintf(w, "| %s |\n", strings.Join(escapeCells(t.Cols), " | "))
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "|%s|\n", strings.Join(sep, "|"))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(escapeCells(row), " | "))
	}
	fmt.Fprintf(w, "\n")
}

func escapeCells(cells []string) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = strings.ReplaceAll(c, "|", "\\|")
	}
	return out
}

// renderTrajectory writes the cross-report key-metric table: one row per
// experiment metric, one column per session, plus the overall change.
func renderTrajectory(w io.Writer, reports []*bench.Report) {
	fmt.Fprintf(w, "## Trajectory\n\n")
	fmt.Fprintf(w, "Key metrics across sessions (oldest first). Sessions at different\n")
	fmt.Fprintf(w, "scale tiers are not directly comparable; the Δ column compares the\n")
	fmt.Fprintf(w, "first and last session.\n\n")

	fmt.Fprintf(w, "| experiment | metric |")
	for _, r := range reports {
		fmt.Fprintf(w, " %s (%s) |",
			escapeCells([]string{labelOf(r)})[0], firstNonEmpty(r.Scale, "?"))
	}
	fmt.Fprintf(w, " Δ first→last |\n|---|---|")
	for range reports {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintf(w, "---|\n")

	for _, id := range metricIDs(reports) {
		t := TargetFor(id)
		vals := make([]float64, len(reports))
		have := make([]bool, len(reports))
		for i, r := range reports {
			if e, ok := findEntry(r, id); ok && e.Table != nil {
				vals[i], have[i] = t.Metric.Extract(e.Table)
			}
		}
		fmt.Fprintf(w, "| %s | %s |", id, t.Metric.Name)
		for i := range reports {
			if have[i] {
				fmt.Fprintf(w, " %s |", formatValue(vals[i], t.Metric.Unit))
			} else {
				fmt.Fprintf(w, " — |")
			}
		}
		first, last := -1, -1
		for i := range reports {
			if have[i] {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first >= 0 && last > first && vals[first] != 0 {
			fmt.Fprintf(w, " %+.1f%% |\n", 100*(vals[last]-vals[first])/vals[first])
		} else {
			fmt.Fprintf(w, " — |\n")
		}
	}
	fmt.Fprintf(w, "\n")
}

// metricIDs returns the ids, in display order, of experiments that have
// both a key metric and a table in at least one report.
func metricIDs(reports []*bench.Report) []string {
	seen := map[string]bool{}
	var ids []string
	for _, r := range reports {
		for _, e := range r.Experiments {
			if seen[e.ID] || e.Table == nil || TargetFor(e.ID).Metric == nil {
				continue
			}
			seen[e.ID] = true
			ids = append(ids, e.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		return experimentSortKey(ids[i]) < experimentSortKey(ids[j])
	})
	return ids
}

func findEntry(r *bench.Report, id string) (bench.ExperimentEntry, bool) {
	for _, e := range r.Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return bench.ExperimentEntry{}, false
}

// paperDelta renders the paper-target delta cell: "N% of paper" as a
// percentage where 100% means "matches the paper" regardless of metric
// direction, or bound satisfaction for floor targets.
func paperDelta(v float64, t Target) string {
	if t.Floor {
		if (v >= t.Paper) != t.Metric.LowerBetter {
			return "meets floor"
		}
		return "below floor"
	}
	return fmt.Sprintf("%.0f%%", 100*pctOfPaper(v, t.Paper, t.Metric.LowerBetter))
}

// pctOfPaper maps a value to its fraction of the paper target such that
// 1.0 always means "matches the paper" regardless of metric direction.
func pctOfPaper(v, paper float64, lowerBetter bool) float64 {
	if paper == 0 {
		return 0
	}
	if lowerBetter {
		if v == 0 {
			return 1
		}
		return paper / v
	}
	return v / paper
}

func formatValue(v float64, unit string) string {
	var s string
	switch {
	case v != 0 && (v < 0.001 || v >= 1e6):
		s = fmt.Sprintf("%.3g", v)
	case v >= 100:
		s = fmt.Sprintf("%.0f", v)
	case v >= 1:
		s = fmt.Sprintf("%.1f", v)
	default:
		s = fmt.Sprintf("%.3g", v)
	}
	if unit != "" {
		s += " " + unit
	}
	return s
}

func labelOf(r *bench.Report) string {
	return firstNonEmpty(r.Label, "(unlabeled)")
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}
