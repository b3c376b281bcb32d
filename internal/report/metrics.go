package report

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// Cond restricts metric extraction to table rows whose cell in Col
// matches. Equals compares the formatted cell verbatim; Prefix matches
// the cell's leading characters. Both empty means "any value".
type Cond struct {
	Col    string
	Equals string
	Prefix string
}

func (c Cond) match(cell string) bool {
	if c.Equals != "" {
		return cell == c.Equals
	}
	if c.Prefix != "" {
		return strings.HasPrefix(cell, c.Prefix)
	}
	return true
}

// Metric locates one scalar in an experiment table: the Agg aggregate of
// column Col over the rows selected by Where. Cells that do not parse as
// numbers (e.g. "-", "stalled", ">N") are skipped, which is how livelocked
// configurations drop out of a peak-throughput metric.
type Metric struct {
	// Name labels the metric in rendered output ("peak AHL+ throughput").
	Name string
	// Col is the column holding the values.
	Col string
	// DivBy optionally divides each value by the same row's cell in this
	// column (ratio metrics such as PoET+/PoET).
	DivBy string
	// Where filters rows; all conditions must match.
	Where []Cond
	// Agg is "max", "min", "first" or "last" over the selected values.
	Agg string
	// Unit annotates rendered values ("tps", "ms", "×", ...).
	Unit string
	// LowerBetter inverts the improvement direction (latency, abort
	// rates, view changes).
	LowerBetter bool
}

// Extract computes the metric over the table. ok is false when the metric
// cannot be computed (missing column, no parsable selected cells).
func (m *Metric) Extract(t *bench.TableData) (v float64, ok bool) {
	vals := m.series(t)
	if len(vals) == 0 {
		return 0, false
	}
	switch m.Agg {
	case "min":
		v = vals[0]
		for _, x := range vals {
			if x < v {
				v = x
			}
		}
	case "first":
		v = vals[0]
	case "last":
		v = vals[len(vals)-1]
	default: // "max"
		v = vals[0]
		for _, x := range vals {
			if x > v {
				v = x
			}
		}
	}
	return v, true
}

// series returns the metric's parsed values in row order. A nil table
// (entries recorded without payloads, e.g. pre-schema reports) yields no
// values.
func (m *Metric) series(t *bench.TableData) []float64 {
	if t == nil {
		return nil
	}
	col := colIndex(t, m.Col)
	if col < 0 {
		return nil
	}
	div := -1
	if m.DivBy != "" {
		if div = colIndex(t, m.DivBy); div < 0 {
			return nil
		}
	}
	conds := make([]int, len(m.Where))
	for i, c := range m.Where {
		if conds[i] = colIndex(t, c.Col); conds[i] < 0 {
			return nil
		}
	}
	var vals []float64
rows:
	for _, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		for i, c := range m.Where {
			if conds[i] >= len(row) || !c.match(row[conds[i]]) {
				continue rows
			}
		}
		v, ok := parseCell(row[col])
		if !ok {
			continue
		}
		if div >= 0 {
			d, ok := parseCell(row[div])
			if !ok || d == 0 {
				continue
			}
			v /= d
		}
		vals = append(vals, v)
	}
	return vals
}

// Sparkline renders the metric's row-ordered series as 8-level block
// characters, with a label describing the range. Series shorter than two
// points render nothing.
func (m *Metric) Sparkline(t *bench.TableData) (spark, label string, ok bool) {
	vals := m.series(t)
	if len(vals) < 2 {
		return "", "", false
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[i])
	}
	label = fmt.Sprintf("%s, %d points, %s → %s",
		m.Name, len(vals), formatValue(lo, m.Unit), formatValue(hi, m.Unit))
	return b.String(), label, true
}

func colIndex(t *bench.TableData, name string) int {
	for i, c := range t.Cols {
		if c == name {
			return i
		}
	}
	return -1
}

// parseCell turns a formatted table cell back into a number. Durations
// ("483ms", "1.2s", "55.3µs") normalize to milliseconds.
func parseCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	if v, err := strconv.ParseFloat(strings.ReplaceAll(s, ",", ""), 64); err == nil {
		return v, true
	}
	if d, err := time.ParseDuration(s); err == nil {
		return float64(d) / float64(time.Millisecond), true
	}
	return 0, false
}
