// Command perfbench is the repository's benchmark: it runs one workload
// against an in-process loopback cluster (or the simulator's figure
// set), checks the results, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Run it through run.sh from the repository root; README.md describes
// the workloads, the metrics and the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload reports with -trace 0.
// Each is measured on the workload's own operation: committed writes
// (transfer-2pc, local-write), correct sweeps (read-under-write) or
// passes over the experiment set (sim-figures).
var endToEnd = []metricDef{
	{"goodput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

var simExperimentMetrics = func() []metricDef {
	var out []metricDef
	for _, id := range simSet {
		out = append(out, metricDef{"sim." + id + ".wall_s", "s"})
	}
	return out
}()

// perLayer are the metrics every workload reports with -trace 1. A
// layer the workload does not exercise reads 0.
var perLayer = append([]metricDef{
	{"client.submit_wait_us_p50", "us"},
	{"client.inflight_mean", "count"},
	{"transport.frames_per_commit", "count"},
	{"transport.bytes_per_commit", "B"},
	{"transport.send_us_p50", "us"},
	{"transport.deliver_us_p50", "us"},
	{"transport.dropped", "count"},
	{"transport.reconnects", "count"},
	{"pbft.commit_ms_p50", "ms"},
	{"pbft.commit_ms_p99", "ms"},
	{"pbft.batch_txs_mean", "count"},
	{"pbft.cut_timeout_share", "ratio"},
	{"pbft.pipeline_occupancy_mean", "count"},
	{"pbft.exec_ms_p50", "ms"},
	{"pbft.view_changes", "count"},
	{"parexec.parallel_share", "ratio"},
	{"parexec.fallback_share", "ratio"},
	{"parexec.utilization_pct", "%"},
	{"storage.wal_append_us_p50", "us"},
	{"storage.fsync_ms_p50", "ms"},
	{"storage.fsyncs_per_commit", "count"},
	{"storage.stalls", "count"},
	{"chain.snapshot_copy_ms_p50", "ms"},
	{"txn.prepare_wait_ms_p50", "ms"},
	{"txn.lock_hold_ms_p50", "ms"},
	{"txn.decide_wait_ms_p50", "ms"},
	{"txn.commit_ms_p50", "ms"},
	{"txn.abort_share", "ratio"},
	{"txn.retries_per_commit", "count"},
	{"txn.dangling_locks", "count"},
	{"query.attempts_per_sweep", "count"},
	{"query.attempt_ms_p50", "ms"},
	{"query.rows_per_sweep", "count"},
	{"query.wrong_results", "count"},
	{"runtime.alloc_mb_per_commit", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"self.write_ms", "ms"},
	{"self.client.submit_ms", "ms"},
	{"self.sweep_ms", "ms"},
	{"self.query.attempt_ms", "ms"},
	{"self.sim.pass_ms", "ms"},
	{"self.sim.experiment_ms", "ms"},
	{"trace.overhead_goodput_pct", "%"},
	{"trace.overhead_p50_pct", "%"},
}, simExperimentMetrics...)

// workloads lists every workload name the benchmark runs.
var workloads = []string{"transfer-2pc", "local-write", "read-under-write", "sim-figures"}

// host records where a report was measured; reports from different
// hosts are shown side by side but never judged against each other.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision" && len(s.Value) >= 12:
				rev = s.Value[:12]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			h.Revision = rev + dirty
		}
	}
	return h
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's full record.
type report struct {
	Host      host             `json:"host"`
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	SetupS    []float64        `json:"setup_samples_s"`
	Named     []string         `json:"-"` // the workload's own metrics, in print order
	Metrics   map[string]value `json:"metrics"`
	Gated     []string         `json:"-"` // the metrics of the last line
	Notes     []string         `json:"notes,omitempty"`
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]value)
	}
	if _, ok := r.Metrics[name]; !ok {
		r.Named = append(r.Named, name)
	}
	r.Metrics[name] = value{v, unit}
}

// print writes the human-readable lines and, last, the JSON line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Revision)
	fmt.Fprintf(w, "workload %s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	for i, s := range r.SetupS {
		fmt.Fprintf(w, "setup %d %.4f s\n", i+1, s)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, name := range r.Named {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %s %.6g %s\n", name, m.Value, m.Unit)
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for _, name := range r.Gated {
		last.Metrics[name] = r.Metrics[name]
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// rssPeakMB is the process's resident-set high-water mark.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// run executes one workload and assembles its report.
func run(workload string, seed int64, seconds int, traced bool, root, buildDir string) (*report, error) {
	rep := &report{Host: thisHost(), Workload: workload, Seed: seed, Seconds: seconds, Trace: traced}
	d := time.Duration(seconds) * time.Second
	if workload == "sim-figures" {
		sr, err := runSim(root, buildDir, d, traced)
		if err != nil {
			return nil, err
		}
		simReport(rep, sr)
	} else {
		if _, ok := liveSpecs[workload]; !ok {
			return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
		}
		rounds, err := runLive(workload, seed, d, traced, buildDir)
		if err != nil {
			return nil, err
		}
		liveReport(rep, rounds, liveSpecs[workload].reads)
	}
	rep.set("rss_peak_mb", "MB", rssPeakMB())
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, m := range defs {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.set(m.name, m.unit, 0)
		}
		rep.Gated = append(rep.Gated, m.name)
	}
	return rep, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+fmt.Sprint(workloads))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		root     = flag.String("root", ".", "repository root")
		build    = flag.String("build", ".bench_build", "directory for durable state, traces and reports")
		out      = flag.String("report", "", "also write the full report as JSON to this file")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
			os.Exit(2)
		}
		os.Exit(compare(os.Stdout, *root, flag.Arg(1), flag.Arg(2)))
	}
	if *workload == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*build, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(*workload, *seed, *seconds, *trace == 1, *root, *build)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write report: %v\n", err)
			os.Exit(1)
		}
	}
	if err := rep.print(os.Stdout); err != nil {
		os.Exit(1)
	}
}

// compare prints two reports' metrics side by side. Only reports from
// the same host shape (nproc, GOMAXPROCS, Go version) are judged: a
// gated metric worse than its BENCHMARK.json bound exits 3.
func compare(w io.Writer, root, oldPath, newPath string) int {
	load := func(p string) (*report, error) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &r, nil
	}
	a, err := load(oldPath)
	if err == nil {
		var b *report
		if b, err = load(newPath); err == nil {
			return judge(w, root, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: compare: %v\n", err)
	return 1
}

type boundDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func judge(w io.Writer, root string, a, b *report) int {
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: compare: bounds: %v\n", err)
		return 1
	}
	bounds := make(map[string]boundDef)
	for _, d := range spec.EndToEnd {
		bounds[d.Name] = d
	}
	same := a.Host.NProc == b.Host.NProc && a.Host.GOMAXPROCS == b.Host.GOMAXPROCS &&
		a.Host.GoVersion == b.Host.GoVersion
	fmt.Fprintf(w, "old %s %s on nproc=%d gomaxprocs=%d %s\n", a.Workload, a.Host.Revision, a.Host.NProc, a.Host.GOMAXPROCS, a.Host.GoVersion)
	fmt.Fprintf(w, "new %s %s on nproc=%d gomaxprocs=%d %s\n", b.Workload, b.Host.Revision, b.Host.NProc, b.Host.GOMAXPROCS, b.Host.GoVersion)
	if a.Workload != b.Workload {
		fmt.Fprintln(w, "different workloads: not judged")
		same = false
	} else if !same {
		fmt.Fprintln(w, "different hosts: numbers shown, not judged")
	}
	var names []string
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	code := 0
	for _, n := range names {
		ov, nv := a.Metrics[n].Value, b.Metrics[n].Value
		change := 100 * ratio(nv-ov, ov)
		verdict := ""
		if bd, ok := bounds[n]; ok && same && ov != 0 {
			worse := change / 100
			if bd.Better == "higher" {
				worse = -worse
			}
			verdict = "ok"
			if worse > bd.Bound {
				verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*bd.Bound)
				code = 3
			}
		}
		fmt.Fprintf(w, "%-32s %12.6g %12.6g %+8.1f%% %s %s\n", n, ov, nv, change, a.Metrics[n].Unit, verdict)
	}
	return code
}
