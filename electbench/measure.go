package main

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// config is one benchmark run's settings.
type config struct {
	seed      int64
	window    time.Duration // measured time; a traced run splits it in two
	setupReps int           // set-ups timed; the last one is measured on
	traced    bool
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // extra context for the human-readable report
}

// report is one run's result.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string
}

// Election index ranges: warm-up set-up r uses warmBase·(r+1) onwards, the
// timed stretches start at 0, so traced and untraced stretches of one run
// elect with the same seeds.
const warmBase = 1 << 40

// runWorkload sets the workload up, drives it and computes the metrics:
// the end-to-end set untraced, or — traced — the per-layer set from an
// untraced and a traced half of the window.
func runWorkload(w workload, cfg config) (report, error) {
	if cfg.traced {
		return runTraced(w, cfg)
	}
	reps := max(1, cfg.setupReps)
	setupS := make([]float64, 0, reps)
	var sub substrate
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		s, err := setupWarm(w, cfg.seed, uint64(r+1)*warmBase, nil)
		if err != nil {
			return report{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if r < reps-1 {
			s.close()
		} else {
			sub = s
		}
	}
	ph, err := drive(w, load{sub: sub, seed: cfg.seed}, cfg.window)
	var rssMB float64
	if err == nil {
		// Read with the substrate still up, so what it keeps counts.
		rssMB, err = settledRSSMB()
	}
	sub.close()
	if err != nil {
		return report{}, err
	}
	rep := newReport(ph)
	rep.metrics = endToEnd(ph, median(sortedCopy(setupS)), rssMB)
	rep.notes = append(rep.notes, fmt.Sprintf("setup_s is the median of %d set-ups: %.3f s", reps, setupS))
	return rep, nil
}

// setupWarm builds the substrate and runs the warm-up elections on it.
func setupWarm(w workload, seed int64, idxBase uint64, tr *tracer) (substrate, error) {
	s, err := setup(w, tr)
	if err != nil {
		return nil, err
	}
	ph, err := load{sub: s, tr: tr, seed: seed, idxBase: idxBase}.runCount(w.warmup, w.inFlight)
	if err == nil && ph.failed > 0 {
		err = fmt.Errorf("%d of %d warm-up elections failed", ph.failed, ph.attempted)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// drive runs one timed stretch of the workload's closed loop, reading the
// process counters around it.
func drive(w workload, l load, window time.Duration) (phase, error) {
	rt0, use0 := readRuntime(), readUsage()
	ph, err := l.closedLoop(w.inFlight, window)
	ph.use1, ph.rt1 = readUsage(), readRuntime()
	ph.use0, ph.rt0 = use0, rt0
	return ph, err
}

func newReport(phases ...phase) report {
	rep := report{correct: true}
	for _, ph := range phases {
		rep.attempted += ph.attempted
		rep.failed += ph.failed
		if ph.wrong > 0 {
			rep.correct = false
		}
	}
	return rep
}

// perElection divides a phase total by its completed elections.
func perElection(total float64, ph phase) float64 {
	if ph.completed == 0 {
		return 0
	}
	return total / float64(ph.completed)
}

// endToEnd computes the metrics a user of the election service sees.
func endToEnd(ph phase, setupS, rssMB float64) []metric {
	lat := sortedCopy(ph.latMs)
	p99 := blockedTail(ph.latMs, 0.99, tailBlocks)
	p99Note := fmt.Sprintf("median over %d consecutive blocks of each block's p%.4g; the median block has %d samples",
		tailBlocks, 100*p99.Q, p99.N)
	if !p99.Supported {
		p99Note = fmt.Sprintf("maximum of %d samples: too few for a tail percentile", p99.N)
	}
	rate := 0.0
	if ph.span > 0 {
		rate = float64(ph.completed) / ph.span.Seconds()
	}
	return []metric{
		{name: "elections_per_s", value: rate, unit: "1/s",
			note: fmt.Sprintf("%d completed in %.3fs", ph.completed, ph.span.Seconds())},
		{name: "latency_p50_ms", value: median(lat), unit: "ms", note: fmt.Sprintf("%d samples", len(lat))},
		{name: "latency_p99_ms", value: p99.Value, unit: "ms", note: p99Note},
		{name: "cpu_ms_per_election", value: perElection(float64(ph.use1.cpu-ph.use0.cpu)/1e6, ph), unit: "ms",
			note: "process user+sys CPU"},
		{name: "allocs_per_election", value: perElection(float64(ph.use1.mallocs-ph.use0.mallocs), ph), unit: "count"},
		{name: "msgs_per_election", value: perElection(float64(ph.msgs), ph), unit: "count"},
		{name: "wire_bytes_per_election", value: perElection(float64(ph.bytes), ph), unit: "B"},
		{name: "rounds_per_election", value: perElection(float64(ph.rounds), ph), unit: "count"},
		{name: "setup_s", value: setupS, unit: "s", note: "listen, dial and warm-up elections"},
		{name: "rss_settled_mb", value: rssMB, unit: "MB",
			note: "resident set after the timed window, with the substrate up, once a forced GC returned free pages to the OS"},
	}
}

// runTraced measures the workload untraced for half the window, then on a
// freshly set-up traced substrate for the other half, and reports the
// per-layer metrics.
func runTraced(w workload, cfg config) (report, error) {
	half := cfg.window / 2
	sub, err := setupWarm(w, cfg.seed, warmBase, nil)
	if err != nil {
		return report{}, err
	}
	plain, err := drive(w, load{sub: sub, seed: cfg.seed}, half)
	sub.close()
	if err != nil {
		return report{}, err
	}

	tr := &tracer{}
	sub, err = setupWarm(w, cfg.seed, warmBase, tr)
	if err != nil {
		return report{}, err
	}
	tr.reset()
	ts0 := transport.ReadStats()
	cm0, cf0 := coalesceStats(sub)
	traced, err := drive(w, load{sub: sub, tr: tr, seed: cfg.seed}, half)
	ts1 := transport.ReadStats()
	cm1, cf1 := coalesceStats(sub)
	sub.close()
	if err != nil {
		return report{}, err
	}
	codec, err := codecTiming(tr.samples.taken())
	if err != nil {
		return report{}, err
	}

	rep := newReport(plain, traced)
	if tr.overrun > 0 {
		rep.correct = false
		rep.notes = append(rep.notes, fmt.Sprintf("%d participants spent longer in rt.Comm than they ran", tr.overrun))
	}
	per := func(total float64) float64 { return perElection(total, traced) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	prop, coll := tr.propNs, tr.collNs
	calls := sortedCopy(append(append([]float64(nil), prop...), coll...))
	callP99 := tailPercentile(calls, 0.99)
	plainP50, tracedP50 := median(sortedCopy(plain.latMs)), median(sortedCopy(traced.latMs))
	srvNs := float64(tr.srvProp.ns.Load() + tr.srvColl.ns.Load())
	srvN := float64(tr.srvProp.n.Load() + tr.srvColl.n.Load())

	rep.metrics = []metric{
		{name: "core.comm_calls_per_election", value: per(float64(tr.calls)), unit: "count"},
		{name: "core.self_ms_per_election", value: per(float64(tr.wallNs-tr.commNs) / 1e6), unit: "ms",
			note: "participant wall time outside rt.Comm calls"},
		{name: "comm.propagate_us_p50", value: median(sortedCopy(prop)) / 1e3, unit: "us",
			note: fmt.Sprintf("%d calls", len(prop))},
		{name: "comm.collect_us_p50", value: median(sortedCopy(coll)) / 1e3, unit: "us",
			note: fmt.Sprintf("%d calls", len(coll))},
		{name: "comm.call_us_p99", value: callP99.Value / 1e3, unit: "us",
			note: fmt.Sprintf("p%.4g of %d calls", 100*callP99.Q, callP99.N)},
		{name: "comm.wait_share", value: ratio(float64(tr.commNs), float64(tr.wallNs)), unit: "ratio",
			note: "share of participant wall time inside rt.Comm calls"},
		{name: "electd.server.requests_per_election", value: per(srvN), unit: "count"},
		{name: "electd.server.propagate_us_mean", value: tr.srvProp.meanUs(), unit: "us"},
		{name: "electd.server.collect_us_mean", value: tr.srvColl.meanUs(), unit: "us"},
		{name: "electd.server.busy_ms_per_election", value: per(srvNs / 1e6), unit: "ms"},
		{name: "electd.pool.reply_us_mean", value: tr.reply.meanUs(), unit: "us"},
		{name: "electd.pool.straggler_drop_share", value: ratio(float64(tr.vetoed.Load()), float64(tr.filtered.Load())), unit: "ratio",
			note: fmt.Sprintf("%d of %d reply frames vetoed before decode", tr.vetoed.Load(), tr.filtered.Load())},
		{name: "electd.pool.retransmit_share", value: ratio(float64(tr.resends.Load()), float64(tr.requests.Load())), unit: "ratio",
			note: fmt.Sprintf("%d of %d request sends repeat a call to the same server", tr.resends.Load(), tr.requests.Load())},
		{name: "electd.pool.msgs_per_frame", value: ratio(float64(cm1-cm0), float64(cf1-cf0)), unit: "ratio",
			note: "coalesced messages per pool frame (Pool.CoalesceStats, the source of the electd_pool_* counters)"},
		{name: "transport.frames_out_per_election", value: per(float64(ts1.FramesOut - ts0.FramesOut)), unit: "count"},
		{name: "transport.bytes_out_per_election", value: per(float64(ts1.BytesOut - ts0.BytesOut)), unit: "B"},
		{name: "transport.msgs_per_batch", value: ratio(float64(ts1.MsgsCoalesced-ts0.MsgsCoalesced), float64(ts1.BatchesOut-ts0.BatchesOut)), unit: "ratio"},
		{name: "transport.send_us_mean", value: tr.send.meanUs(), unit: "us",
			note: fmt.Sprintf("%d dial-side sends", tr.send.n.Load())},
		{name: "wire.encode_ns_per_msg", value: codec.encodeNs, unit: "ns",
			note: fmt.Sprintf("wire.Append over %d sampled messages", len(tr.samples.taken()))},
		{name: "wire.decode_ns_per_msg", value: codec.decodeNs, unit: "ns"},
		{name: "wire.decode_allocs_per_msg", value: codec.decodeAllocs, unit: "count"},
		{name: "wire.bytes_per_msg", value: codec.bytes, unit: "B", note: "frame body"},
		{name: "runtime.gc_cycles_per_1k_elections", value: perElection(1000*float64(plain.rt1.gcCycles-plain.rt0.gcCycles), plain), unit: "count",
			note: "untraced half"},
		{name: "runtime.gc_pause_ms_p99", value: 1e3 * histQuantile(plain.rt0.pauses, plain.rt1.pauses, 0.99), unit: "ms",
			note: "untraced half"},
		{name: "runtime.sched_latency_us_p99", value: 1e6 * histQuantile(plain.rt0.sched, plain.rt1.sched, 0.99), unit: "us",
			note: "untraced half"},
		{name: "bench.gen_late_ms_max", value: float64(plain.late) / 1e6, unit: "ms",
			note: "untraced half: the longest gap between an election returning and its worker's next start"},
		{name: "bench.trace_overhead_p50", value: ratio(tracedP50, plainP50), unit: "ratio",
			note: fmt.Sprintf("traced p50 %.3f ms / untraced p50 %.3f ms", tracedP50, plainP50)},
	}
	return rep, nil
}

// coalesceStats reads an electd substrate's pool coalescing totals.
func coalesceStats(s substrate) (msgs, frames int64) {
	if ns, ok := s.(*netSub); ok {
		return ns.cl.Pool().CoalesceStats()
	}
	return 0, 0
}
