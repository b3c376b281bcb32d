package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// delta is the change in the replicas' registries over the measured
// window, summed across replicas.
type delta struct{ before, after []obs.Snapshot }

func (d delta) counter(name string) float64 {
	var v float64
	for i := range d.after {
		v += float64(d.after[i].Counters[name]) - float64(d.before[i].Counters[name])
	}
	return v
}

func (d delta) gauge(name string) float64 {
	var v float64
	for _, s := range d.after {
		v += float64(s.Gauges[name])
	}
	return v
}

func (d delta) hist(name string) obs.HistogramSnapshot {
	out := obs.HistogramSnapshot{Buckets: make([]uint64, obs.HistBuckets)}
	for i := range d.after {
		a, b := d.after[i].Histograms[name], d.before[i].Histograms[name]
		out.Count += a.Count - b.Count
		out.Sum += a.Sum - b.Sum
		out.Size = a.Size
		for k := range a.Buckets {
			var prev uint64
			if k < len(b.Buckets) {
				prev = b.Buckets[k]
			}
			out.Buckets[k] += a.Buckets[k] - prev
		}
	}
	return out
}

// msQ is a duration histogram's q-quantile in milliseconds.
func msQ(h obs.HistogramSnapshot, q float64) float64 { return h.Quantile(q) / 1e3 }

func mean(h obs.HistogramSnapshot) float64 { return ratio(float64(h.Sum), float64(h.Count)) }

// overhead sets the traced run's overhead metrics from the primary
// operation's untraced (mode[0]) and traced (mode[1]) outcomes, each
// measured over durs[mode].
func overhead(rep *report, mode modes, durs [2]time.Duration) {
	var tput, p50 [2]float64
	for i := range mode {
		tput[i] = ratio(float64(mode[i].done), durs[i].Seconds())
		p50[i] = quantileMs(mode[i].lat, 0.5)
	}
	rep.set("trace.overhead_goodput_pct", "%", 100*ratio(tput[0]-tput[1], tput[0]))
	rep.set("trace.overhead_p50_pct", "%", 100*ratio(p50[1]-p50[0], p50[0]))
}

func setSelf(rep *report, self map[string]float64) {
	for name, ms := range self {
		rep.set("self."+name+"_ms", "ms", ms)
	}
}

// liveReport turns a live run's rounds into metrics, outcome counts and
// correctness. Rates and percentiles are medians over the rounds; ratios
// are taken over all rounds together.
func liveReport(rep *report, rounds []*round, reads bool) {
	var tps, p50, p99, qps, rp50, rp99 []float64
	var w writeStats
	var r readStats
	var queries int
	rep.Correct = true
	for _, rd := range rounds {
		win := rd.window.Seconds()
		rep.SetupS = append(rep.SetupS, rd.setupS)
		tps = append(tps, float64(rd.w.mode[0].done+rd.w.mode[1].done)/win)
		lat, rlat := rd.w.mode.lat(), rd.r.mode.lat()
		p50 = append(p50, quantileMs(lat, 0.5))
		p99 = append(p99, quantileMs(lat, 0.99))
		qps = append(qps, float64(rd.r.ok)/win)
		rp50 = append(rp50, quantileMs(rlat, 0.5))
		rp99 = append(rp99, quantileMs(rlat, 0.99))
		w.attempted += rd.w.attempted
		w.committed += rd.w.committed
		w.aborted += rd.w.aborted
		w.errored += rd.w.errored
		w.timedOut += rd.w.timedOut
		r.attempted += rd.r.attempted
		r.ok += rd.r.ok
		r.failed += rd.r.failed
		r.wrong += rd.r.wrong
		queries += rd.q.attempts
		if rd.auditErr != nil {
			rep.Correct = false
			rep.Failed++
			rep.Notes = append(rep.Notes, rd.auditErr.Error())
		}
	}
	rep.Correct = rep.Correct && r.wrong == 0
	rep.Attempted = w.attempted + r.attempted + len(rounds) // + each round's closing audit
	rep.Failed += w.errored + w.timedOut + r.failed
	if r.wrong > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d sweeps returned a wrong total or account count", r.wrong))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d rounds; writes: %d attempted, %d committed, %d aborted, %d errored, %d timed out",
		len(rounds), w.attempted, w.committed, w.aborted, w.errored, w.timedOut))
	if reads {
		rep.Notes = append(rep.Notes, fmt.Sprintf("sweeps: %d attempted, %d correct, %d failed, %d query attempts",
			r.attempted, r.ok, r.failed, queries))
	}
	if !rep.Trace {
		rep.set("commit_tps", "1/s", median(tps))
		rep.set("commit_p50_ms", "ms", median(p50))
		rep.set("commit_p99_ms", "ms", median(p99))
		rep.set("failed_ratio", "ratio", ratio(float64(w.aborted+w.errored+w.timedOut), float64(w.attempted)))
		if reads {
			rep.set("read_qps", "1/s", median(qps))
			rep.set("read_p50_ms", "ms", median(rp50))
			rep.set("read_p99_ms", "ms", median(rp99))
			rep.set("read_failed_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)))
			rep.set("goodput_per_s", "1/s", median(qps))
			rep.set("latency_p50_ms", "ms", median(rp50))
			rep.set("latency_p99_ms", "ms", median(rp99))
		} else {
			rep.set("goodput_per_s", "1/s", median(tps))
			rep.set("latency_p50_ms", "ms", median(p50))
			rep.set("latency_p99_ms", "ms", median(p99))
		}
		rep.set("setup_s", "s", median(rep.SetupS))
		return
	}

	lr := rounds[0]
	w, r = lr.w, lr.r
	commits := w.mode[0].done + w.mode[1].done
	rep.Notes = append(rep.Notes, "trace written to "+lr.trace)
	half := [2]time.Duration{lr.window / 2, lr.window / 2}
	if reads {
		overhead(rep, r.mode, half)
	} else {
		overhead(rep, w.mode, half)
	}
	tracedCommits := float64(w.mode[1].done)
	d := delta{lr.before, lr.after}
	rep.set("client.submit_wait_us_p50", "us", 1e3*quantileMs(w.submitWait, 0.5))
	rep.set("client.inflight_mean", "count", ratio(float64(w.inflightSum), float64(w.inflightN)))
	rep.set("transport.frames_per_commit", "count", ratio(float64(lr.probeFrames), tracedCommits))
	rep.set("transport.bytes_per_commit", "B", ratio(float64(lr.probeBytes), tracedCommits))
	rep.set("transport.send_us_p50", "us", lr.probeSend.Quantile(0.5))
	rep.set("transport.deliver_us_p50", "us", lr.probeDeliver.Quantile(0.5))
	rep.set("transport.dropped", "count", float64(lr.tcpAfter.dropped-lr.tcpBefore.dropped))
	rep.set("transport.reconnects", "count", float64(lr.tcpAfter.reconnects-lr.tcpBefore.reconnects))

	rep.set("pbft.commit_ms_p50", "ms", msQ(d.hist("pbft_commit_latency"), 0.5))
	rep.set("pbft.commit_ms_p99", "ms", msQ(d.hist("pbft_commit_latency"), 0.99))
	rep.set("pbft.batch_txs_mean", "count", mean(d.hist("pbft_batch_txs")))
	cuts := d.counter("pbft_batch_cut_timeout_total") + d.counter("pbft_batch_cut_size_total") +
		d.counter("pbft_batch_cut_fastpath_total")
	rep.set("pbft.cut_timeout_share", "ratio", ratio(d.counter("pbft_batch_cut_timeout_total"), cuts))
	rep.set("pbft.pipeline_occupancy_mean", "count", ratio(w.occupancySum, float64(w.occupancyN)))
	rep.set("pbft.exec_ms_p50", "ms", msQ(d.hist("pbft_exec_latency"), 0.5))
	rep.set("pbft.view_changes", "count", d.counter("pbft_view_changes_total"))

	batches := d.counter("pbft_parexec_parallel_total") + d.counter("pbft_parexec_serial_total") +
		d.counter("pbft_parexec_conflict_fallback_total")
	rep.set("parexec.parallel_share", "ratio", ratio(d.counter("pbft_parexec_parallel_total"), batches))
	rep.set("parexec.fallback_share", "ratio", ratio(d.counter("pbft_parexec_conflict_fallback_total"), batches))
	rep.set("parexec.utilization_pct", "%", mean(d.hist("pbft_parexec_utilization_pct")))

	rep.set("storage.wal_append_us_p50", "us", d.hist("storage_wal_append_latency").Quantile(0.5))
	rep.set("storage.fsync_ms_p50", "ms", msQ(d.hist("storage_wal_fsync_latency"), 0.5))
	rep.set("storage.fsyncs_per_commit", "count", ratio(d.counter("storage_wal_fsync_total"), float64(commits)))
	rep.set("storage.stalls", "count", d.counter("storage_wal_stall_total"))
	rep.set("chain.snapshot_copy_ms_p50", "ms", msQ(d.hist("pbft_snapshot_copy_latency"), 0.5))

	rep.set("txn.prepare_wait_ms_p50", "ms", msQ(d.hist("txn_2pc_prepare_wait"), 0.5))
	rep.set("txn.lock_hold_ms_p50", "ms", msQ(d.hist("txn_2pc_lock_hold"), 0.5))
	rep.set("txn.decide_wait_ms_p50", "ms", msQ(d.hist("txn_2pc_decide_wait"), 0.5))
	rep.set("txn.commit_ms_p50", "ms", msQ(d.hist("txn_2pc_commit_latency"), 0.5))
	c2, a2 := d.counter("txn_2pc_commit_total"), d.counter("txn_2pc_abort_total")
	rep.set("txn.abort_share", "ratio", ratio(a2, c2+a2))
	rep.set("txn.retries_per_commit", "count",
		ratio(d.counter("txn_2pc_retry_prepare_total")+d.counter("txn_2pc_retry_vote_total"), c2))
	rep.set("txn.dangling_locks", "count", delta{after: lr.quiesced}.gauge("txn_dangling_locks"))

	q := lr.q
	rep.set("query.attempts_per_sweep", "count", ratio(float64(q.attempts), float64(q.sweeps)))
	rep.set("query.attempt_ms_p50", "ms", quantileMs(q.attemptLat, 0.5))
	rep.set("query.rows_per_sweep", "count", ratio(float64(q.rows), float64(q.sweeps)))
	rep.set("query.wrong_results", "count", float64(r.wrong+q.wrong))

	rep.set("runtime.alloc_mb_per_commit", "MB", ratio((lr.rtAfter.allocBytes-lr.rtBefore.allocBytes)/1e6, float64(commits)))
	rep.set("runtime.gc_cpu_share", "ratio", ratio(lr.rtAfter.gcCPU-lr.rtBefore.gcCPU, lr.rtAfter.totalCPU-lr.rtBefore.totalCPU))
	setSelf(rep, lr.selfMs)
}

// simReport turns a sim-figures run into metrics. Its operation is one
// pass over the experiment set; each table is checked.
func simReport(rep *report, sr *simRun) {
	rep.SetupS = sr.setupS
	rep.Correct = len(sr.mismatch) == 0
	rep.Attempted = sr.runs + sr.warmRuns
	rep.Failed = len(sr.mismatch)
	if len(sr.mismatch) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("tables differing from BENCH_smoke.json: %v", sr.mismatch))
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d passes over %v, %d tables checked", len(sr.passes), simSet, sr.runs+sr.warmRuns))
	if !rep.Trace {
		rep.set("sim_wall_s", "s", quantileMs(sr.passes, 0.5)/1e3)
		rep.set("goodput_per_s", "1/s", float64(len(sr.passes))/sr.window.Seconds())
		rep.set("latency_p50_ms", "ms", quantileMs(sr.passes, 0.5))
		rep.set("latency_p99_ms", "ms", quantileMs(sr.passes, 0.99))
		rep.set("setup_s", "s", median(sr.setupS))
		return
	}
	rep.Notes = append(rep.Notes, "trace written to "+sr.trace)
	var durs [2]time.Duration
	for i, m := range sr.mode {
		for _, l := range m.lat {
			durs[i] += l
		}
	}
	overhead(rep, sr.mode, durs)
	for _, id := range simSet {
		rep.set("sim."+id+".wall_s", "s", median(sr.wallS[id]))
	}
	rep.set("runtime.gc_cpu_share", "ratio", ratio(sr.rtAfter.gcCPU-sr.rtBefore.gcCPU, sr.rtAfter.totalCPU-sr.rtBefore.totalCPU))
	setSelf(rep, sr.selfMs)
}
