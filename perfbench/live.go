package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/txn"
)

const (
	// window is the closed loop's bound on in-flight writes.
	window = 32
	// warmup runs the load before the measured window opens, so TCP
	// dials, first pre-prepares and cold caches stay out of it.
	warmup = time.Second
	// readRate paces read-under-write's write stream (writes/s).
	readRate = 300
	// sweepAttempts bounds one sweep's re-pins after ErrHeightPruned.
	sweepAttempts = 20
	// attemptTimeout bounds one sweep attempt.
	attemptTimeout = 10 * time.Second
	// rounds is how many fresh clusters an untraced live run measures, and
	// how many times sim-figures sets up; setup_s is the median of the
	// set-ups, and every sample is printed.
	rounds = 5
)

// liveSpec describes one live workload's write stream and readers.
type liveSpec struct {
	perShard int     // accounts seeded on each shard
	cross    float64 // share of cross-shard payments
	zipf     bool
	rate     float64 // writes/s; 0 runs the closed loop at full speed
	reads    bool    // one conservation sweep at a time beside the writes
}

var liveSpecs = map[string]liveSpec{
	"transfer-2pc":     {perShard: 4096, cross: 1, zipf: true},
	"local-write":      {perShard: 4096, cross: 0, zipf: false},
	"read-under-write": {perShard: 2048, cross: 0.3, zipf: true, rate: readRate, reads: true},
}

// segments splits the measured window. The untraced run measures one
// segment; the traced run alternates untraced and traced quarters so
// the tracing overhead is measured on the same cluster in the same run.
type segments struct {
	start time.Time
	ends  []time.Time
	trace []bool
}

func newSegments(start time.Time, d time.Duration, traced bool) segments {
	if !traced {
		return segments{start: start, ends: []time.Time{start.Add(d)}, trace: []bool{false}}
	}
	s := segments{start: start}
	for i := 1; i <= 4; i++ {
		s.ends = append(s.ends, start.Add(d*time.Duration(i)/4))
		s.trace = append(s.trace, i%2 == 0)
	}
	return s
}

func (s segments) end() time.Time { return s.ends[len(s.ends)-1] }

// at returns the segment index t falls in, or -1 outside the window.
func (s segments) at(t time.Time) int {
	if t.Before(s.start) {
		return -1
	}
	for i, e := range s.ends {
		if t.Before(e) {
			return i
		}
	}
	return -1
}

// modeStats accumulates one tracing mode's primary-operation outcomes.
type modeStats struct {
	done int
	lat  []time.Duration
}

// modes holds the untraced (0) and traced (1) outcomes.
type modes [2]modeStats

// lat returns both modes' latencies together.
func (m modes) lat() []time.Duration {
	return append(append([]time.Duration(nil), m[0].lat...), m[1].lat...)
}

// writeStats is the write stream's outcome: counts cover every write of
// the round, warm-up included; latencies and modes the measured window.
type writeStats struct {
	attempted, committed, aborted, errored, timedOut int
	mode                                             modes // committed writes
	submitWait                                       []time.Duration
	inflightSum, inflightN                           int
	occupancySum                                     float64
	occupancyN                                       int
}

// readStats is the sweep stream's outcome: counts cover every sweep of
// the round, warm-up included; latencies and modes the measured window.
type readStats struct {
	attempted, ok, failed, wrong int
	mode                         modes // correct sweeps
}

// writer is the generator goroutine's state.
type writer struct {
	cl      *cluster
	g       *gen
	spec    liveSpec
	seg     segments
	p       *probe
	tr      *tracer
	runTag  string
	results chan completion
	starts  []time.Time
	subEnd  []time.Time
	occ     []*obs.Gauge
	open    func() // runs once, when the measured window opens
	st      writeStats
}

type completion struct {
	idx       int
	committed bool
	at        time.Time
}

func (w *writer) submit(idx int) error {
	o := w.g.next()
	done := func(r txn.Result) { w.results <- completion{idx, r.Committed, time.Now()} }
	start := time.Now()
	w.starts = append(w.starts, start)
	var err error
	if o.Cross {
		d := core.PaymentDTx(shardCount, fmt.Sprintf("pb%s-%d", w.runTag, idx), o.From, o.To, o.Amount)
		err = w.cl.client.SubmitDistributed(d, done)
	} else {
		tx := chain.Tx{
			ID:        w.cl.client.NextTxID(),
			Chaincode: core.AutoSmallBank,
			Fn:        "sendPayment",
			Args:      []string{o.From, o.To, strconv.FormatInt(o.Amount, 10)},
		}
		err = w.cl.client.SubmitSingle(o.Shard, tx, done)
	}
	end := time.Now()
	w.subEnd = append(w.subEnd, end)
	w.st.attempted++
	if i := w.seg.at(start); i >= 0 && w.seg.trace[i] {
		w.st.submitWait = append(w.st.submitWait, end.Sub(start))
	}
	return err
}

func (w *writer) complete(c completion) {
	start := w.starts[c.idx]
	lat := c.at.Sub(start)
	if c.committed {
		w.st.committed++
	} else {
		w.st.aborted++
	}
	i := w.seg.at(c.at)
	if i < 0 {
		return
	}
	traced := w.seg.trace[i]
	if c.committed {
		m := &w.st.mode[b2i(traced)]
		m.done++
		m.lat = append(m.lat, lat)
	}
	if traced {
		w.tr.add("write", "", uint64(c.idx), start, c.at)
		w.tr.add("client.submit", "write", uint64(c.idx), start, w.subEnd[c.idx])
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run drives the write stream from warm-up to the end of the measured
// window, then waits for every write still in flight.
func (w *writer) run(t0 time.Time) error {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	interval := time.Duration(0)
	if w.spec.rate > 0 {
		interval = time.Duration(float64(time.Second) / w.spec.rate)
	}
	nextDue := t0
	nextSample := t0
	inFlight := 0
	traced, opened := false, false
	for {
		now := time.Now()
		if !now.Before(w.seg.end()) {
			break
		}
		i := w.seg.at(now)
		if i >= 0 && !opened {
			opened = true
			if w.open != nil {
				w.open()
			}
		}
		if on := i >= 0 && w.seg.trace[i]; on != traced {
			traced = on
			w.p.on.Store(on)
		}
		if traced && !now.Before(nextSample) {
			w.sampleOccupancy()
			nextSample = now.Add(10 * time.Millisecond)
		}
		for inFlight < window && (interval == 0 || !nextDue.After(now)) {
			if i >= 0 {
				w.st.inflightSum += inFlight
				w.st.inflightN++
			}
			if err := w.submit(len(w.starts)); err != nil {
				w.st.errored++
				return err
			}
			inFlight++
			nextDue = nextDue.Add(interval)
		}
		wake := w.seg.start
		if i >= 0 {
			wake = w.seg.ends[i]
		}
		if interval > 0 && inFlight < window && nextDue.Before(wake) {
			wake = nextDue
		}
		if traced && nextSample.Before(wake) {
			wake = nextSample
		}
		timer.Reset(time.Until(wake))
		select {
		case c := <-w.results:
			inFlight--
			w.complete(c)
		case <-timer.C:
		}
		timer.Stop()
	}
	w.p.on.Store(false)
	deadline := time.After(replyTimeout)
	for inFlight > 0 {
		select {
		case c := <-w.results:
			inFlight--
			w.complete(c)
		case <-deadline:
			w.st.timedOut = inFlight
			return nil
		}
	}
	return nil
}

// sampleOccupancy adds one sample of the committees' summed pipeline
// occupancy (only a committee's leader has a nonzero gauge).
func (w *writer) sampleOccupancy() {
	var sum int64
	for _, g := range w.occ {
		sum += g.Load()
	}
	w.st.occupancySum += float64(sum) / float64(shardCount+1)
	w.st.occupancyN++
}

// queryStats counts the conservation sweeps a run made: the reader's,
// from the measured window, and the closing audit's.
type queryStats struct {
	sweeps, attempts, wrong int
	attemptLat              []time.Duration
	rows                    uint64
}

// sweep runs one conservation sweep, re-pinning after ErrHeightPruned or
// ErrNoPin up to sweepAttempts times. onAttempt sees each attempt's span.
func sweep(c *core.LiveClient, onAttempt func(a, b time.Time)) (*query.ConservationResult, error) {
	for tries := 1; ; tries++ {
		a := time.Now()
		res, err := c.Conservation(1, attemptTimeout)
		onAttempt(a, time.Now())
		if err == nil || tries == sweepAttempts ||
			!(errors.Is(err, chain.ErrHeightPruned) || errors.Is(err, query.ErrNoPin)) {
			return res, err
		}
	}
}

// checkSweep compares a sweep with the seeded ledger: n accounts holding
// n × initialBalance in total.
func checkSweep(res *query.ConservationResult, n int) error {
	want := int64(n) * initialBalance
	if res.Accounts != uint64(n) || res.Total != want {
		return fmt.Errorf("wrong sweep: %d accounts (want %d), total %d (want %d, diff %+d), pins %v, %d residues",
			res.Accounts, n, res.Total, want, res.Total-want, res.Pins, len(res.Residues))
	}
	return nil
}

// reader runs one conservation sweep at a time until the window closes.
type reader struct {
	cl  *cluster
	seg segments
	tr  *tracer
	st  readStats
	q   queryStats
}

func (r *reader) run() {
	n := r.cl.seeded()
	for id := uint64(0); ; id++ {
		start := time.Now()
		if !start.Before(r.seg.end()) {
			return
		}
		inWindow := r.seg.at(start) >= 0
		res, err := sweep(r.cl.client, func(a, b time.Time) {
			if inWindow {
				r.q.attempts++
				r.q.attemptLat = append(r.q.attemptLat, b.Sub(a))
			}
			if i := r.seg.at(a); i >= 0 && r.seg.trace[i] {
				r.tr.add("query.attempt", "sweep", id, a, b)
			}
		})
		end := time.Now()
		if err == nil {
			if err = checkSweep(res, n); err != nil {
				r.st.wrong++
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: sweep %d failed: %v\n", id, err)
		}
		r.st.attempted++
		if err != nil {
			r.st.failed++
		}
		if inWindow {
			r.q.sweeps++
			if err == nil {
				r.q.rows += res.Accounts + uint64(len(res.Residues))
			}
		}
		i := r.seg.at(end)
		if i < 0 || err != nil {
			continue
		}
		r.st.ok++
		m := &r.st.mode[b2i(r.seg.trace[i])]
		m.done++
		m.lat = append(m.lat, end.Sub(start))
		if r.seg.trace[i] {
			r.tr.add("sweep", "", id, start, end)
		}
	}
}

// audit waits until no 2PC residue is staged anywhere, then checks that
// the sweep finds every seeded account and exactly the seeded money.
func audit(cl *cluster, q *queryStats) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := sweep(cl.client, func(a, b time.Time) {
			q.attempts++
			q.attemptLat = append(q.attemptLat, b.Sub(a))
		})
		q.sweeps++
		if err == nil {
			q.rows += res.Accounts + uint64(len(res.Residues))
			if len(res.Residues) == 0 {
				if err := checkSweep(res, cl.seeded()); err != nil {
					q.wrong++
					return fmt.Errorf("audit: %w", err)
				}
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("audit: %w", err)
			}
			return fmt.Errorf("audit: %d staged residues remain after quiescing", len(res.Residues))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// rtSample reads the Go runtime counters the per-layer metrics use.
type rtSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{val(0), val(1), val(2)}
}

// snapshotAll captures every replica's registry.
func snapshotAll(cl *cluster) []obs.Snapshot {
	out := make([]obs.Snapshot, len(cl.nodes))
	for i, n := range cl.nodes {
		out[i] = n.Obs().Reg.Snapshot()
	}
	return out
}

// round is everything one cluster's lifetime measured: its set-up, the
// measured window and the closing audit.
type round struct {
	setupS       float64
	window       time.Duration
	w            writeStats
	r            readStats
	q            queryStats
	auditErr     error
	before       []obs.Snapshot
	after        []obs.Snapshot
	quiesced     []obs.Snapshot // after the audit
	rtBefore     rtSample
	rtAfter      rtSample
	tcpBefore    tcpCounts
	tcpAfter     tcpCounts
	probeFrames  uint64
	probeBytes   uint64
	probeSend    obs.HistogramSnapshot
	probeDeliver obs.HistogramSnapshot
	selfMs       map[string]float64
	trace        string
}

type tcpCounts struct{ dropped, reconnects uint64 }

// runLive runs the workload's rounds. The untraced run measures rounds
// windows of seconds/rounds each, every one on a fresh cluster, so that
// one slow start or one slow window does not decide the run; the traced
// run measures one round of seconds.
func runLive(name string, seed int64, seconds time.Duration, traced bool, buildDir string) ([]*round, error) {
	n := rounds
	if traced {
		n = 1
	}
	var out []*round
	for k := 0; k < n; k++ {
		runtime.GC() // each round starts from a collected heap
		r, err := runRound(name, seed*rounds+int64(k), k, seconds/time.Duration(n), traced, buildDir)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", k+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// runRound sets up and seeds a cluster, drives the workload for seconds
// after the warm-up, and audits the ledger.
func runRound(name string, seed int64, k int, seconds time.Duration, traced bool, buildDir string) (*round, error) {
	spec := liveSpecs[name]
	p := newProbe()
	cl, d, err := setupCluster(buildDir, k, spec.perShard, p)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer cl.stop()
	out := &round{setupS: d.Seconds()}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t0 := time.Now()
	seg := newSegments(t0.Add(warmup), seconds, traced)
	out.window = seconds
	w := &writer{cl: cl, g: newGen(seed, cl.accounts, spec.cross, spec.zipf), spec: spec, seg: seg,
		p: p, tr: tr, runTag: cl.client.RunTag(), results: make(chan completion, window)}
	for _, n := range cl.nodes {
		w.occ = append(w.occ, n.Obs().Reg.Gauge("pbft_pipeline_occupancy"))
	}
	var rd *reader
	var wg sync.WaitGroup
	if spec.reads {
		rd = &reader{cl: cl, seg: seg, tr: tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd.run()
		}()
	}
	if traced {
		w.open = func() {
			out.before = snapshotAll(cl)
			out.rtBefore = readRuntime()
			out.tcpBefore = cl.tcpCounts()
		}
	}
	err = w.run(t0)
	if traced {
		out.after = snapshotAll(cl)
		out.rtAfter = readRuntime()
		out.tcpAfter = cl.tcpCounts()
	}
	wg.Wait()
	out.w = w.st
	if rd != nil {
		out.r, out.q = rd.st, rd.q
	}
	if err != nil {
		return out, err
	}
	out.auditErr = audit(cl, &out.q)
	if traced {
		out.quiesced = snapshotAll(cl)
		out.probeFrames = p.frames.Load()
		out.probeBytes = p.bytes.Load()
		snap := p.reg.Snapshot()
		out.probeSend = snap.Histograms["send"]
		out.probeDeliver = snap.Histograms["deliver"]
		out.selfMs = tr.selfTimes()
		out.trace = filepath.Join(buildDir, "trace-"+name+".jsonl")
		if err := tr.write(out.trace); err != nil {
			return out, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}
