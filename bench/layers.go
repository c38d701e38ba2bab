package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"twoface/internal/harness"
	"twoface/internal/kernels"
)

// layerMetrics fills m with the per-layer metrics of a traced run: what the
// set-ups, the probes of the plain kernel, the ops of the traced segments,
// the decorator's counters and the modeled first multiply say about each
// module. counts are the decorator's totals over the fixed count pass.
func layerMetrics(m map[string]float64, refReps int, inst instance, infos []setupInfo, segs []segment, counts transportTotals) error {
	f := inst.facts()
	setupMedian := func(get func(setupInfo) time.Duration) float64 {
		var xs []float64
		for _, info := range infos {
			xs = append(xs, get(info).Seconds())
		}
		return median(xs)
	}
	var tracedSegs []segment
	var ops []opSample // every op of the traced segments
	for _, seg := range segs {
		if seg.stats.Kind == kindTraced {
			tracedSegs = append(tracedSegs, seg)
			ops = append(ops, seg.samples...)
		}
	}
	perOp := func(get func(segment) float64) float64 { // mean per op within a segment, median over segments
		var xs []float64
		for _, seg := range tracedSegs {
			if seg.stats.Attempted > 0 {
				xs = append(xs, get(seg)/float64(seg.stats.Attempted))
			}
		}
		return median(xs)
	}
	const mb = 1e6
	period := float64(inst.period())

	m["gen.build_s"] = setupMedian(func(i setupInfo) time.Duration { return i.gen })
	m["core.preprocess_s"] = setupMedian(func(i setupInfo) time.Duration { return i.preprocess })
	m["core.sync_stripes"] = float64(f.prep.SyncStripes)
	m["core.async_stripes"] = float64(f.prep.AsyncStripes)
	m["core.sync_nnz"] = float64(f.prep.SyncNNZ)
	m["core.async_nnz"] = float64(f.prep.AsyncNNZ)

	// The plain kernel on the same A and B: the baseline distribution is paid over.
	t := time.Now()
	csr := f.a.ToCSR()
	m["sparse.tocsr_s"] = time.Since(t).Seconds()
	var single, parallel []float64
	for i := 0; i < refReps; i++ {
		t = time.Now()
		if _, err := csr.Mul(f.b); err != nil {
			return err
		}
		single = append(single, ms(time.Since(t)))
		t = time.Now()
		if _, err := csr.MulParallel(f.b, runtime.NumCPU()); err != nil {
			return err
		}
		parallel = append(parallel, ms(time.Since(t)))
	}
	m["sparse.ref_mul_ms"] = median(single)
	m["sparse.ref_mul_par_ms"] = median(parallel)
	m["kernels.axpy_ns"] = axpyNanos(f.k)

	_, isServe := inst.(*serveInstance)
	m["core.multiply_ms"] = median(pick(ops, all, opMs))
	if isServe {
		m["core.multiply_ms"] = median(pick(ops, func(s opSample) bool { return !s.coalesced }, func(s opSample) float64 { return s.execMs }))
	}
	m["core.run_ms"] = median(pick(ops, all, func(s opSample) float64 { return ms(s.run) }))
	m["core.outside_run_ms"] = median(pick(ops, func(s opSample) bool { return s.run > 0 }, func(s opSample) float64 { return ms(s.dur - s.run) }))
	m["core.over_ref"] = m["core.multiply_ms"] / m["sparse.ref_mul_par_ms"]
	m["core.alloc_mb_per_op"] = perOp(func(s segment) float64 { return float64(s.allocBytes) / mb })
	m["core.mallocs_per_op"] = perOp(func(s segment) float64 { return float64(s.mallocs) })
	m["core.gc_pause_ms_per_op"] = perOp(func(s segment) float64 { return float64(s.gcPauseNs) / 1e6 })
	var hits, lookups int64
	for _, s := range ops {
		hits += s.cacheHits
		lookups += s.cacheOp
	}
	if lookups > 0 {
		m["core.rowcache_hit_frac"] = float64(hits) / float64(lookups)
	}
	if !isServe {
		m["core.cold_ms"] = median(pick(ops, func(s opSample) bool { return s.cold }, opMs))
		m["core.warm_ms"] = median(pick(ops, func(s opSample) bool { return !s.cold }, opMs))
	}

	flops := 2 * float64(f.a.NNZ()) * float64(f.k)
	st := f.a.ComputeStats()
	touched := float64(st.NumCols-int32(st.EmptyCols)) + float64(st.NumRows) // B rows read + C rows written
	m["kernels.flops_per_byte"] = flops / (16*float64(f.a.NNZ()) + 8*float64(f.k)*touched)
	busyMs := m["core.run_ms"]
	if busyMs == 0 {
		busyMs = m["core.multiply_ms"] // the server does not report Result.Wall
	}
	if busyMs > 0 {
		m["kernels.gflops"] = flops / (busyMs * 1e6)
	}

	// Counts repeat exactly: they come from the fixed count pass.
	m["cluster.read_calls"] = float64(counts.readCalls) / period
	m["cluster.read_regions"] = float64(counts.readRegions) / period
	m["cluster.read_mb"] = 8 * float64(counts.readElems) / mb / period
	m["cluster.expose_calls"] = float64(counts.exposeCalls) / period
	m["cluster.barrier_calls"] = float64(counts.barrierCalls) / period
	m["cluster.read_busy_ms"] = perOp(func(s segment) float64 { return ms(s.transport.readBusy) })
	m["cluster.read_busy_max_rank_ms"] = perOp(func(s segment) float64 { return ms(s.transport.readBusyMaxRank) })
	m["cluster.barrier_wait_ms"] = perOp(func(s segment) float64 { return ms(s.transport.barrierWait) })
	m["cluster.barrier_wait_max_rank_ms"] = perOp(func(s segment) float64 { return ms(s.transport.barrierWaitMaxRank) })

	// The modeled run: the first multiply on the fresh plan.
	tt := f.first.TotalTransfer
	m["cluster.collective_mb"] = float64(tt.CollectiveBytes) / mb
	m["cluster.onesided_mb"] = float64(tt.OneSidedBytes) / mb
	m["cluster.onesided_gets"] = float64(tt.OneSidedGets)
	straggler := f.first.Breakdowns[0]
	for _, bd := range f.first.Breakdowns {
		if bd.NodeTime() > straggler.NodeTime() {
			straggler = bd
		}
	}
	m["cluster.modeled_sync_ms"] = 1e3 * (straggler.SyncComm + straggler.SyncComp)
	m["cluster.modeled_async_ms"] = 1e3 * (straggler.AsyncComm + straggler.AsyncComp)
	m["cluster.modeled_overlap_ms"] = 1e3 * straggler.SyncOverlap
	m["cluster.modeled_other_ms"] = 1e3 * straggler.Other

	if _, isTCP := inst.(*tcpInstance); isTCP {
		var remote transportTotals
		for _, seg := range tracedSegs {
			remote.remoteCalls += seg.transport.remoteCalls
			remote.remoteElems += seg.transport.remoteElems
			remote.remoteBusy += seg.transport.remoteBusy
		}
		m["transport.tcp.dial_s"] = setupMedian(func(i setupInfo) time.Duration { return i.dial })
		if remote.remoteCalls > 0 {
			m["transport.tcp.read_rtt_us"] = float64(remote.remoteBusy.Microseconds()) / float64(remote.remoteCalls)
			m["transport.tcp.read_mbps"] = 8 * float64(remote.remoteElems) / mb / remote.remoteBusy.Seconds()
		}
		m["transport.tcp.read_busy_ms"] = perOp(func(s segment) float64 { return ms(s.transport.remoteBusyMaxRank) })
		m["transport.tcp.barrier_wait_ms"] = m["cluster.barrier_wait_ms"]
		m["transport.tcp.over_sim"] = m["core.multiply_ms"] / f.soloMs
	}

	if isServe {
		class := func(c int) func(opSample) bool { return func(s opSample) bool { return s.class == c } }
		// A coalesced follower reports its leader's queue and exec times.
		executed := func(c int) func(opSample) bool {
			return func(s opSample) bool { return s.class == c && !s.coalesced }
		}
		decode := func(s opSample) float64 { return s.totalMs - s.queueMs - s.execMs }
		queue := pick(ops, all, func(s opSample) float64 { return s.queueMs })
		m["serve.seed_ms"] = median(pick(ops, class(classSeed), opMs))
		m["serve.octet_ms"] = median(pick(ops, class(classOctet), opMs))
		m["serve.json_ms"] = median(pick(ops, class(classJSON), opMs))
		m["serve.exec_ms"] = m["core.multiply_ms"]
		m["serve.queue_ms"] = median(queue)
		m["serve.queue_p90_ms"] = harness.Percentile(queue, 90)
		m["serve.octet_decode_ms"] = median(pick(ops, executed(classOctet), decode))
		m["serve.json_decode_ms"] = median(pick(ops, executed(classJSON), decode))
		m["serve.http_ms"] = median(pick(ops, all, func(s opSample) float64 { return s.httpMs }))
		m["serve.exec_over_solo"] = m["serve.exec_ms"] / f.soloMs
		var bytes int64
		for _, s := range ops {
			bytes += s.reqBytes
			if s.shed {
				m["serve.shed"]++
			}
			if s.coalesced {
				m["serve.coalesced"]++
			}
		}
		m["serve.req_mb"] = float64(bytes) / mb / float64(len(ops))
	}

	m["host.peak_rss_mb"] = peakRSSMB()
	m["host.nproc"] = float64(runtime.NumCPU())
	return nil
}

// axpyNanos times kernels.Axpy at length k on vectors that stay in cache:
// the per-row cost every panel and stripe loop is made of.
func axpyNanos(k int) float64 {
	x, y := make([]float64, k), make([]float64, k)
	for i := range x {
		x[i] = float64(i%7) + 0.5
	}
	const calls = 20000
	var batches []float64
	for b := 0; b < 15; b++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			kernels.Axpy(1e-9, x, y)
		}
		batches = append(batches, float64(time.Since(start).Nanoseconds())/calls)
	}
	return median(batches)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
