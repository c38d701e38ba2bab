package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"twoface/internal/harness"
)

// runConfig is one run: one workload, one seed, traced or not.
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64 // length of the measured phase
	traced   bool
	size     sizing
	outDir   string    // where the traced run writes trace-<workload>.json
	progress io.Writer // phase-by-phase narration
}

// Segment kinds. An untraced run measures three "untraced" windows. A traced
// run alternates untraced and traced segments, so that drift over the run
// lands on both sides of bench.trace_overhead_frac alike; sim-hub adds
// segments with the program's own instrumentation on as well.
const (
	kindUntraced = "untraced"
	kindTraced   = "traced"
	kindObs      = "traced+obs"
)

// windowStats is one measured segment, kept raw in the result file.
type windowStats struct {
	Kind      string  `json:"kind"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"` // correct, timed ops behind the percentiles
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	OpsPerS   float64 `json:"ops_per_s"`
}

// runResult is everything one run measured.
type runResult struct {
	Workload       string             `json:"workload"`
	Seed           uint64             `json:"seed"`
	Traced         bool               `json:"traced"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	SetupSeconds   []float64          `json:"setup_s_raw"`
	Windows        []windowStats      `json:"windows"`
	Metrics        map[string]float64 `json:"metrics"`
	Reconciliation *reconciliation    `json:"reconciliation,omitempty"`
	TraceFile      string             `json:"trace_file,omitempty"`
}

// segment is the raw outcome of one measured interval.
type segment struct {
	stats     windowStats
	samples   []opSample
	transport transportTotals
	// Allocator activity over the segment (runtime.MemStats deltas).
	mallocs, allocBytes, gcPauseNs uint64
}

// measure runs every client of inst in a closed loop — a client starts its
// next op only when the previous one has returned and been checked — until
// both d has elapsed and each client has done minOps ops. next holds each
// client's position in its op sequence and is advanced.
func measure(inst instance, next []int, d time.Duration, minOps int) segment {
	clients := inst.clients()
	perClient := make([][]opSample, clients)
	active := make([]time.Duration, clients)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var checking time.Duration
			for done := 0; done < minOps || time.Since(start) < d; done++ {
				s := inst.do(c, next[c])
				next[c]++
				perClient[c] = append(perClient[c], s)
				checking += s.check
				if !s.timed {
					checking += s.dur
				}
			}
			// A client is active while it waits for an op, not while the
			// benchmark checks the answer.
			active[c] = time.Since(start) - checking
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	seg := segment{stats: windowStats{Seconds: wall.Seconds()}}
	var lat []float64
	for c, samples := range perClient {
		correct := 0
		for _, s := range samples {
			seg.stats.Attempted++
			if !s.ok {
				seg.stats.Failed++
				continue
			}
			if s.timed {
				correct++
				lat = append(lat, ms(s.dur))
			}
		}
		if active[c] > 0 {
			seg.stats.OpsPerS += float64(correct) / active[c].Seconds()
		}
		seg.samples = append(seg.samples, samples...)
	}
	seg.stats.Samples = len(lat)
	if len(lat) > 0 {
		seg.stats.P50Ms = harness.Percentile(lat, 50)
		seg.stats.P90Ms = harness.Percentile(lat, 90)
	}
	seg.mallocs = after.Mallocs - before.Mallocs
	seg.allocBytes = after.TotalAlloc - before.TotalAlloc
	seg.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return seg
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return harness.Percentile(xs, 50)
}

// pick collects f(s) over the samples that pass keep.
func pick(samples []opSample, keep func(opSample) bool, f func(opSample) float64) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.timed && keep(s) {
			out = append(out, f(s))
		}
	}
	return out
}

func all(opSample) bool { return true }

func opMs(s opSample) float64 { return ms(s.dur) }

// runWorkload executes the run protocol for one workload: set up several
// times, verify, warm up, measure.
func runWorkload(cfg runConfig) (*runResult, error) {
	logf := func(format string, args ...any) {
		if cfg.progress != nil {
			fmt.Fprintf(cfg.progress, "[%s] "+format+"\n", append([]any{cfg.workload.name}, args...)...)
		}
	}
	ctx := &runCtx{seed: cfg.seed, size: cfg.size}
	if cfg.traced {
		ctx.rec = newRecorder(100_000)
	}
	res := &runResult{Workload: cfg.workload.name, Seed: cfg.seed, Traced: cfg.traced, Metrics: map[string]float64{}}

	// (1) Set-up, several times back to back; the last instance is kept.
	var inst instance
	var infos []setupInfo
	for i := 0; i < cfg.size.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC() // the previous plan's memory is not this set-up's cost
		}
		var info setupInfo
		var err error
		inst, info, err = cfg.workload.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		infos = append(infos, info)
		res.SetupSeconds = append(res.SetupSeconds, info.total.Seconds())
	}
	defer inst.close()
	logf("set-up x%d: median %.3f s", len(infos), median(res.SetupSeconds))

	// (2) References, and the first multiply by every operand checked.
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("verification at set-up: %w", err)
	}
	f := inst.facts()
	next := make([]int, inst.clients())

	// Exact counts: one period of the op sequence, one caller, decorator on.
	// It follows prepare directly so that it starts from the same cache
	// state in every run.
	var counts transportTotals
	if cfg.traced {
		f.stats.reset()
		f.stats.on.Store(true)
		for n := 0; n < inst.period(); n++ {
			if s := inst.do(0, n); !s.ok {
				return nil, fmt.Errorf("count pass: op %d failed verification", n)
			}
		}
		f.stats.on.Store(false)
		counts = f.stats.totals()
		next[0] = inst.period()
	}

	// (3) Warm-up: fresh pages are zero-filled slowly on small VMs and the
	// executor allocates two rows x K outputs per call, so the first ops
	// after set-up are not what a caller in steady state sees.
	warm := measure(inst, next, cfg.size.warmFor, cfg.size.warmOps)
	logf("warm-up: %d ops in %.2f s", warm.stats.Attempted, warm.stats.Seconds)

	// (4) Measure.
	kinds := []string{kindUntraced, kindUntraced, kindUntraced}
	if cfg.traced {
		kinds = []string{kindUntraced, kindTraced, kindUntraced, kindTraced}
		if f.obs != nil {
			kinds = []string{kindUntraced, kindTraced, kindObs, kindUntraced, kindTraced, kindObs}
		}
	}
	per := time.Duration(cfg.seconds / float64(len(kinds)) * float64(time.Second))
	var segs []segment
	for _, kind := range kinds {
		if kind != kindUntraced {
			f.stats.reset()
			f.stats.on.Store(true)
		}
		if kind == kindObs {
			f.obs.set(true)
		}
		seg := measure(inst, next, per, 1)
		if kind == kindObs {
			f.obs.set(false)
		}
		if kind != kindUntraced {
			f.stats.on.Store(false)
			seg.transport = f.stats.totals()
		}
		seg.stats.Kind = kind
		segs = append(segs, seg)
		res.Windows = append(res.Windows, seg.stats)
		res.Attempted += seg.stats.Attempted
		res.Failed += seg.stats.Failed
		logf("%-12s %5.2f s  %4d ops  p50 %8.3f ms  p90 %8.3f ms  %7.2f ops/s  failed %d",
			kind, seg.stats.Seconds, seg.stats.Samples, seg.stats.P50Ms, seg.stats.P90Ms, seg.stats.OpsPerS, seg.stats.Failed)
	}

	overWindows := func(kind string, get func(windowStats) float64) float64 {
		var xs []float64
		for _, seg := range segs {
			if seg.stats.Kind == kind && seg.stats.Samples > 0 {
				xs = append(xs, get(seg.stats))
			}
		}
		return median(xs)
	}
	p50 := func(w windowStats) float64 { return w.P50Ms }

	m := res.Metrics
	if !cfg.traced {
		m["setup_s"] = median(res.SetupSeconds)
		m["op_p50_ms"] = overWindows(kindUntraced, p50)
		m["op_p90_ms"] = overWindows(kindUntraced, func(w windowStats) float64 { return w.P90Ms })
		m["ops_per_s"] = overWindows(kindUntraced, func(w windowStats) float64 { return w.OpsPerS })
		m["modeled_ms"] = 1e3 * f.first.ModeledSeconds
		return res, nil
	}

	if err := layerMetrics(m, cfg.size.refReps, inst, infos, segs, counts); err != nil {
		return nil, err
	}
	m["bench.trace_overhead_frac"] = overWindows(kindTraced, p50)/overWindows(kindUntraced, p50) - 1
	if f.obs != nil {
		m["obs.on_overhead_frac"] = overWindows(kindObs, p50)/overWindows(kindTraced, p50) - 1
	}

	ctx.rec.mu.Lock()
	rc := reconcile(ctx.rec.chain)
	ctx.rec.mu.Unlock()
	res.Reconciliation = &rc
	m["bench.reconcile_err_frac"] = rc.RelErr
	logf("reconciliation: %d ops, chain self %.3f ms of %.3f ms op time (off by %.3f%%)", rc.Ops, rc.ChainMs, rc.OpMs, 100*rc.RelErr)

	res.TraceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload.name+".json")
	if err := ctx.rec.writeChromeTrace(res.TraceFile, cfg.workload.name); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	if err := rc.err(); err != nil {
		return nil, err
	}
	return res, nil
}
