package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
)

// simSet is sim-figures' fixed experiment set: single-committee PBFT
// variants and the simulated baselines (fig2, fig8), the sharding
// formation math (fig11), whole-system sharding at scale (fig13x) and
// the read path (fig-read).
var simSet = []string{"fig2", "fig8", "fig11", "fig13x", "fig-read"}

// warmSet are the analytic tables regenerated during set-up: they are
// checked like the figures, and warm the process before the first timed
// experiment.
var warmSet = []string{"eq1", "eq2", "eq3", "table1", "table2", "table3"}

// simRun is everything one sim-figures run measured.
type simRun struct {
	setupS   []float64
	wallS    map[string][]float64 // per experiment, one sample per pass
	passes   []time.Duration
	window   time.Duration
	runs     int // timed experiments
	warmRuns int // analytic tables regenerated during set-up
	mismatch []string
	mode     modes // regenerated experiments
	selfMs   map[string]float64
	trace    string
	rtBefore rtSample
	rtAfter  rtSample
}

// loadBaseline reads the smoke tables every regenerated table must equal.
func loadBaseline(root string) (map[string][]byte, error) {
	rep, err := bench.ReadReportFile(filepath.Join(root, "BENCH_smoke.json"))
	if err != nil {
		return nil, err
	}
	want := make(map[string][]byte)
	for _, e := range rep.Experiments {
		if e.Table == nil {
			continue
		}
		b, err := json.Marshal(e.Table)
		if err != nil {
			return nil, err
		}
		want[e.ID] = b
	}
	for _, id := range append(append([]string(nil), warmSet...), simSet...) {
		if _, ok := want[id]; !ok {
			return nil, fmt.Errorf("BENCH_smoke.json has no table for %s", id)
		}
		if _, ok := bench.Get(id); !ok {
			return nil, fmt.Errorf("no experiment %s", id)
		}
	}
	return want, nil
}

// regenerate runs experiment id at smoke scale and reports whether its
// table equals the baseline's.
func regenerate(id string, want map[string][]byte) (bool, error) {
	e, _ := bench.Get(id)
	got, err := json.Marshal(e.Run(bench.Smoke()).Data())
	if err != nil {
		return false, err
	}
	if !bytes.Equal(got, want[id]) {
		fmt.Fprintf(os.Stderr, "perfbench: %s table differs from BENCH_smoke.json\n got: %s\nwant: %s\n", id, got, want[id])
		return false, nil
	}
	return true, nil
}

// runSim regenerates the experiment set at smoke scale, pass after pass,
// until seconds have passed (at least one whole pass). In the traced run
// passes alternate between untraced and traced.
func runSim(root, buildDir string, seconds time.Duration, traced bool) (*simRun, error) {
	// One worker: the experiments run serially, so their wall time is the
	// simulator's own work and not how much of a second CPU it found.
	// Tables are identical at any worker count.
	bench.SetWorkers(1)
	defer bench.SetWorkers(0)
	out := &simRun{wallS: make(map[string][]float64)}
	var want map[string][]byte
	for k := 0; k < rounds; k++ {
		start := time.Now()
		w, err := loadBaseline(root)
		if err != nil {
			return nil, err
		}
		for _, id := range warmSet {
			ok, err := regenerate(id, w)
			if err != nil {
				return nil, err
			}
			out.warmRuns++
			if !ok {
				out.mismatch = append(out.mismatch, id)
			}
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		want = w
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	out.rtBefore = readRuntime()
	t0 := time.Now()
	for pass := 0; pass == 0 || time.Since(t0) < seconds || (traced && pass < 2); pass++ {
		tracedPass := traced && pass%2 == 1
		ps := time.Now()
		for _, id := range simSet {
			start := time.Now()
			ok, err := regenerate(id, want)
			end := time.Now()
			if err != nil {
				return nil, err
			}
			out.runs++
			if !ok {
				out.mismatch = append(out.mismatch, id)
			}
			d := end.Sub(start)
			out.wallS[id] = append(out.wallS[id], d.Seconds())
			m := &out.mode[b2i(tracedPass)]
			m.done++
			m.lat = append(m.lat, d)
			if tracedPass {
				tr.add("sim.experiment", "sim.pass", uint64(pass), start, end)
			}
		}
		pe := time.Now()
		out.passes = append(out.passes, pe.Sub(ps))
		if tracedPass {
			tr.add("sim.pass", "", uint64(pass), ps, pe)
		}
	}
	out.window = time.Since(t0)
	out.rtAfter = readRuntime()
	if traced {
		out.selfMs = tr.selfTimes()
		out.trace = filepath.Join(buildDir, "trace-sim-figures.jsonl")
		if err := tr.write(out.trace); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}
