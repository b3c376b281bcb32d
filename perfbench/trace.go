package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. The spans of
// one operation share its ID; Parent names the enclosing span (empty for
// the operation's root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write puts them in a file once the run
// is over. It is used only by the traced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name, parent string, id uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the mean self time in milliseconds:
// a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		name string
		id   uint64
	}
	children := make(map[key][][2]int64)
	for _, s := range t.spans {
		if s.Parent != "" {
			k := key{s.Parent, s.ID}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	total := make(map[string]float64)
	count := make(map[string]int)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[key{s.Name, s.ID}])
		total[s.Name] += float64(self) / 1e6
		count[s.Name]++
	}
	for name := range total {
		total[name] /= float64(count[name])
	}
	return total
}

// covered returns how much of [start, end) the intervals cover.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// quantileMs returns the q-quantile of ds (nearest rank) in milliseconds,
// or 0 for no samples.
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
