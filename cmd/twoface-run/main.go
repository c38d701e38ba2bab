// Command twoface-run executes one distributed SpMM on a matrix from disk
// (or a generated analog) with a chosen algorithm, printing the modeled
// time, per-node breakdown, and data-movement summary.
//
// Usage:
//
//	twoface-run -matrix web -scale 0.25 -algo twoface -K 128 -p 8
//	twoface-run -in graph.mtx.gz -algo ds2 -K 64
//	twoface-run -plan web.tfp -K 128 -p 8        # run a saved plan
//
// Observability (any algorithm):
//
//	-trace               print a per-node transfer-trace summary
//	-trace-out t.json    write a Chrome/Perfetto-loadable virtual-time trace
//	-report r.json       write a structured JSON run report
//	-explain             print the critical-path makespan attribution
//	-explain-json        same, as JSON
//	-listen :9090        serve /metrics (OpenMetrics), /report, /healthz,
//	                     and /debug/pprof over HTTP while the run executes
//	-log-level info      structured slog logging to stderr (-log-json for
//	                     JSON lines): retries, degradations, aborts
//	-cpuprofile p.out    write a pprof CPU profile of the (wall-clock) run
//	-memprofile m.out    write a pprof heap profile at exit
//
// Fault injection (any algorithm):
//
//	-chaos-seed 7        run under a random survivable fault plan; with
//	                     -verify the result is checked against a fault-free
//	                     twin run (bit-exact, or ulp-level for algorithms
//	                     that accumulate concurrently)
//	-fault-plan f.json   run under a hand-written fault plan
//	-chaos-crash         add a recoverable rank crash to the -chaos-seed
//	                     plan (pair with -recover, or watch the abort)
//	-recover             fail-recover mode: survivors re-execute a crashed
//	                     rank's work from its last checkpoint instead of
//	                     aborting (twoface algorithm only)
//	-checkpoint-interval virtual-seconds between checkpoints under -recover
//	                     (0 = automatic ~2%-overhead cadence)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"twoface"
)

type cli struct {
	in, name   string
	scale      float64
	seed       uint64
	plan, algo string
	k, p       int
	syncW      int
	asyncW     int
	verify     bool
	trace      bool
	traceOut   string
	traceCap   int
	report     string
	cpuProfile string
	memProfile string
	chaosSeed  uint64
	faultPlan  string
	chaosCrash bool
	recover    bool
	ckptEvery  float64
	forceGen   bool
	allowFMA   bool
	listen     string
	logLevel   string
	logJSON    bool
	explain    bool
	explainOut bool // -explain-json: attribution as JSON on stdout
	quiet      bool // suppress progress prints (fault-free twin run)
	rank       int
	peers      string
	rendezvous string
	writeC     string
}

// register declares every flag on fs, bound to c's fields.
func (c *cli) register(fs *flag.FlagSet) {
	fs.StringVar(&c.in, "in", "", "input matrix file (.mtx, .mtx.gz, or .bin)")
	fs.StringVar(&c.name, "matrix", "", "or: generate a registry analog by name")
	fs.Float64Var(&c.scale, "scale", 0.25, "scale for -matrix")
	fs.Uint64Var(&c.seed, "seed", 42, "seed for -matrix and B")
	fs.StringVar(&c.plan, "plan", "", "or: load a saved preprocessing plan (.tfp)")
	fs.StringVar(&c.algo, "algo", "twoface", "algorithm: twoface|ds1|ds2|ds4|ds8|allgather|asynccoarse|asyncfine")
	fs.IntVar(&c.k, "K", 128, "dense matrix columns")
	fs.IntVar(&c.p, "p", 8, "simulated nodes")
	fs.IntVar(&c.syncW, "sync-workers", 4, "goroutines per node on the collective path (wall-clock only)")
	fs.IntVar(&c.asyncW, "async-workers", 2, "goroutines per node draining the one-sided queue (wall-clock only)")
	fs.BoolVar(&c.verify, "verify", true, "check the result against the reference kernel")
	fs.BoolVar(&c.trace, "trace", false, "print a per-node transfer trace summary")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome trace-event JSON of the run's virtual-time spans")
	fs.IntVar(&c.traceCap, "trace-cap", 1<<16, "per-node transfer-trace event cap for -trace")
	fs.Uint64Var(&c.chaosSeed, "chaos-seed", 0, "run under a random survivable fault plan with this seed (0 = off)")
	fs.StringVar(&c.faultPlan, "fault-plan", "", "run under the JSON fault plan at this path")
	fs.BoolVar(&c.chaosCrash, "chaos-crash", false, "add a recoverable rank crash to the -chaos-seed plan")
	fs.BoolVar(&c.recover, "recover", false, "recover crashed ranks from checkpoints instead of aborting (twoface only)")
	fs.Float64Var(&c.ckptEvery, "checkpoint-interval", 0, "virtual seconds between checkpoints under -recover (0 = auto)")
	fs.BoolVar(&c.forceGen, "force-generic", false, "pin compute kernels to the portable pure-Go loops (no SIMD dispatch)")
	fs.BoolVar(&c.allowFMA, "allow-fma", false, "opt compute kernels into fused multiply-add assembly (ulp-level drift vs default)")
	fs.StringVar(&c.report, "report", "", "write a structured JSON run report")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile")
	fs.StringVar(&c.listen, "listen", "", "serve the live ops endpoint (/metrics, /report, /healthz, /debug/pprof) on this host:port")
	fs.StringVar(&c.logLevel, "log-level", "", "structured logging to stderr at this level: debug|info|warn|error (empty = off)")
	fs.BoolVar(&c.logJSON, "log-json", false, "emit log records as JSON lines (with -log-level)")
	fs.BoolVar(&c.explain, "explain", false, "print the critical-path makespan attribution after the run")
	fs.BoolVar(&c.explainOut, "explain-json", false, "print the critical-path attribution as JSON")
	fs.IntVar(&c.rank, "rank", -1, "multi-process mode: run as this rank of a real TCP cluster (-1 = in-process simulator)")
	fs.StringVar(&c.peers, "peers", "", "multi-process mode: comma-separated host:port of every rank, in rank order")
	fs.StringVar(&c.rendezvous, "rendezvous", "", "multi-process mode: directory where ranks publish their bound addresses (use instead of -peers)")
	fs.StringVar(&c.writeC, "write-c", "", "write the computed C to this file (raw row-major float64; rank 0 only in multi-process mode)")
}

func main() {
	var c cli
	c.register(flag.CommandLine)
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "twoface-run:", err)
		os.Exit(1)
	}
}

// options maps the flags onto twoface.Options — the one place a flag reaches
// the library. What is not a flag value (the resolved fault plan, the span
// recorder, the logger, the transport) is attached by the caller.
func (c cli) options() twoface.Options {
	opts := twoface.Options{
		Nodes: c.p, DenseColumns: c.k, TimingOnly: !c.verify,
		Workers: c.syncW, AsyncWorkers: c.asyncW,
		ForceGenericKernels: c.forceGen, AllowFMA: c.allowFMA,
		Recover: c.recover, CheckpointInterval: c.ckptEvery,
	}
	if c.trace {
		opts.TraceEvents = c.traceCap
	}
	return opts
}

func run(c cli) error {
	if c.rank >= 0 {
		return runTCP(c)
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	logger, _, err := twoface.SetupLogging("twoface-run", c.logLevel, c.logJSON)
	if err != nil {
		return err
	}

	var tracer *twoface.Tracer
	if c.traceOut != "" || c.explain || c.explainOut {
		tracer = twoface.NewTracer(0)
	}
	if c.report != "" || c.listen != "" {
		twoface.DefaultMetrics().SetEnabled(true)
	}
	srv, err := twoface.ServeOps(c.listen)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		srv.SetStatus("running")
		fmt.Printf("ops endpoint: http://%s (/metrics, /report, /healthz, /debug/pprof)\n", srv.Addr())
	}

	chaosPlan, err := resolveFaultPlan(c)
	if err != nil {
		return err
	}

	opts := c.options()
	opts.Chaos = chaosPlan
	if tracer != nil {
		opts.SpanRecorder = tracer
	}
	if c.logLevel != "" {
		opts.Logger = logger
	}
	sys, err := twoface.New(opts)
	if err != nil {
		return err
	}

	var (
		res *twoface.Result
		a   *twoface.SparseMatrix
	)
	switch {
	case c.plan != "":
		res, err = runPlan(sys, c)
	default:
		a, err = loadMatrix(c.in, c.name, c.scale, c.seed)
		if err != nil {
			return err
		}
		res, err = runMatrix(sys, a, c)
	}
	if err != nil {
		return err
	}
	if res == nil { // OOM already reported
		return nil
	}

	if c.verify && a != nil {
		want, err := twoface.Reference(a, twoface.RandomDense(int(a.NumCols), c.k, c.seed+1))
		if err != nil {
			return err
		}
		if !res.C.AlmostEqual(want, 1e-9) {
			return fmt.Errorf("result does not match the reference kernel")
		}
		fmt.Println("verified against the reference kernel")
	}
	if chaosPlan != nil {
		if err := reportChaos(c, a, res, chaosPlan); err != nil {
			return err
		}
	}
	report(res)
	if c.writeC != "" && res.C != nil {
		if err := writeCFile(c.writeC, res.C); err != nil {
			return err
		}
		fmt.Printf("wrote C: %s\n", c.writeC)
	}

	if c.explain || c.explainOut {
		cp := tracer.CriticalPath()
		if cp == nil {
			return fmt.Errorf("explain: no spans were recorded")
		}
		// The attribution must agree with the ledger bit-for-bit; a mismatch
		// means the tracer and the cluster disagree about the run.
		if err := cp.Reconciles(res.Breakdowns); err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		if c.explainOut {
			b, err := json.MarshalIndent(cp, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(b))
		}
		if c.explain {
			fmt.Print(cp.Table())
		}
	}

	if c.trace {
		fmt.Println("per-node transfer trace:")
		for _, s := range twoface.SummarizeTrace(res.TraceEvents, res.TraceDropped, c.p) {
			fmt.Printf("  node %d: %d events (%d dropped), %.2f MB collective, %.2f MB one-sided in %d regions\n",
				s.Rank, s.Events, s.Dropped, float64(8*s.CollectiveElems)/1e6, float64(8*s.OneSidedElems)/1e6, s.OneSidedMsgs)
		}
	}
	if tracer != nil && c.traceOut != "" {
		if err := tracer.WriteChromeTraceFile(c.traceOut); err != nil {
			return err
		}
		fmt.Printf("virtual-time trace: %s (load in chrome://tracing or https://ui.perfetto.dev)\n", c.traceOut)
	}
	if c.report != "" || srv != nil {
		rep := buildReport(c, res, tracer)
		if srv != nil {
			srv.SetReport(rep)
			srv.SetStatus("done")
		}
		if c.report != "" {
			if err := rep.WriteFile(c.report); err != nil {
				return err
			}
			fmt.Printf("run report: %s\n", c.report)
		}
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// resolveFaultPlan turns the chaos flags into a fault plan (nil = healthy).
func resolveFaultPlan(c cli) (*twoface.FaultPlan, error) {
	switch {
	case c.faultPlan != "" && c.chaosSeed != 0:
		return nil, fmt.Errorf("use -chaos-seed or -fault-plan, not both")
	case c.chaosCrash && c.chaosSeed == 0:
		return nil, fmt.Errorf("-chaos-crash needs -chaos-seed")
	case c.faultPlan != "":
		return twoface.LoadFaultPlan(c.faultPlan)
	case c.chaosSeed != 0:
		if c.chaosCrash {
			return twoface.RandomFaultPlanWithCrash(c.chaosSeed, c.p), nil
		}
		return twoface.RandomFaultPlan(c.chaosSeed, c.p), nil
	}
	return nil, nil
}

// reportChaos prints the resilience summary of a chaotic run and, when the
// plan is survivable (or recoverable under -recover) and verification is
// on, replays the run on a healthy twin system and checks the two results
// agree — the headline guarantee of the degradation and recovery designs.
func reportChaos(c cli, a *twoface.SparseMatrix, res *twoface.Result, plan *twoface.FaultPlan) error {
	rs := res.TotalResilience
	fmt.Printf("chaos: %d get retries (%d exhausted), %d degradations (%.2f MB re-fetched synchronously), %d leg retries, %.3g s backoff, %.3g s injected delay\n",
		rs.GetRetries, rs.GetExhausted, rs.Degradations, float64(8*rs.DegradedElems)/1e6, rs.LegRetries, rs.BackoffSeconds, rs.DelaySeconds)
	if rs.Crashes > 0 {
		fmt.Printf("chaos: recovered %d crashed rank(s): %d checkpoints (%.3g s), %d stripes + %d panels re-executed, %.2f MB re-fetched, %.3g s recovery work\n",
			rs.Crashes, rs.Checkpoints, rs.CheckpointSeconds, rs.RecoveredStripes, rs.RecoveredPanels,
			float64(8*rs.RefetchedElems)/1e6, rs.RecoverySeconds)
	}
	if !c.verify || !(plan.Survivable() || (c.recover && plan.Recoverable(c.p))) {
		return nil
	}
	twinCfg := c
	twinCfg.quiet = true
	twinOpts := c.options()
	twinOpts.Recover, twinOpts.TraceEvents = false, 0
	twinSys, err := twoface.New(twinOpts)
	if err != nil {
		return err
	}
	var twin *twoface.Result
	if c.plan != "" {
		twin, err = runPlan(twinSys, twinCfg)
	} else {
		twin, err = runMatrix(twinSys, a, twinCfg)
	}
	if err != nil {
		return fmt.Errorf("fault-free twin run: %w", err)
	}
	maxRel, err := compareTwin(res.C, twin.C)
	if err != nil {
		return fmt.Errorf("chaos: result differs from the fault-free run: %w", err)
	}
	inflation := fmt.Sprintf("makespan %.4g s vs %.4g s fault-free, %+.1f%%",
		res.ModeledSeconds, twin.ModeledSeconds, 100*(res.ModeledSeconds/twin.ModeledSeconds-1))
	if maxRel == 0 {
		fmt.Printf("chaos: bit-exact with the fault-free run (%s)\n", inflation)
	} else {
		// Some algorithms accumulate C concurrently, so two healthy runs
		// already differ by reassociation ulps (DESIGN.md section 7); the
		// twin check then asserts ulp-level agreement, not bit equality.
		fmt.Printf("chaos: matches the fault-free run within float tolerance (max rel diff %.2g; %s)\n",
			maxRel, inflation)
	}
	return nil
}

// twinRelTol bounds the per-element relative difference accepted between a
// chaotic run and its fault-free twin. Concurrent accumulation reorders
// float additions by scheduling, so even two fault-free runs of the async
// baselines differ by ~1e-13; anything past this bound means the chaos
// layer moved wrong data, not just reassociated the same sums.
const twinRelTol = 1e-9

// compareTwin returns the maximum per-element relative difference between
// the two results (0 when bit-identical), or an error when the shapes
// mismatch or any element diverges past twinRelTol.
func compareTwin(a, b *twoface.DenseMatrix) (float64, error) {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("result shape mismatch")
	}
	var maxRel float64
	for i, v := range a.Data {
		w := b.Data[i]
		if v == w {
			continue
		}
		rel := math.Abs(v-w) / math.Max(math.Max(math.Abs(v), math.Abs(w)), 1)
		if rel > twinRelTol {
			return 0, fmt.Errorf("element %d: %v vs %v (rel %.2g)", i, v, w, rel)
		}
		if rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel, nil
}

func runMatrix(sys *twoface.System, a *twoface.SparseMatrix, c cli) (*twoface.Result, error) {
	b := twoface.RandomDense(int(a.NumCols), c.k, c.seed+1)
	if !c.quiet {
		st := a.ComputeStats()
		fmt.Printf("A: %dx%d, %d nonzeros (avg %.2f/row); K=%d, p=%d, algo=%s\n",
			st.NumRows, st.NumCols, st.NNZ, st.AvgPerRow, c.k, c.p, c.algo)
	}

	switch strings.ToLower(c.algo) {
	case "twoface":
		pl, err := sys.Preprocess(a)
		if err != nil {
			return nil, err
		}
		if !c.quiet {
			ps := pl.Stats()
			fmt.Printf("classified: %d sync stripes, %d async stripes, fan-out avg %.1f\n",
				ps.SyncStripes, ps.AsyncStripes, ps.AvgMulticastFanout)
		}
		return pl.Multiply(b)
	default:
		base, err := baselineFor(c.algo)
		if err != nil {
			return nil, err
		}
		res, err := sys.RunBaseline(base, a, b)
		if twoface.IsOutOfMemory(err) {
			fmt.Println("result: OUT OF MEMORY (replication exceeds the per-node budget)")
			return nil, nil
		}
		return res, err
	}
}

func baselineFor(algo string) (twoface.Baseline, error) {
	switch strings.ToLower(algo) {
	case "ds1":
		return twoface.DenseShift1, nil
	case "ds2":
		return twoface.DenseShift2, nil
	case "ds4":
		return twoface.DenseShift4, nil
	case "ds8":
		return twoface.DenseShift8, nil
	case "allgather":
		return twoface.Allgather, nil
	case "asynccoarse":
		return twoface.AsyncCoarse, nil
	case "asyncfine":
		return twoface.AsyncFine, nil
	}
	return "", fmt.Errorf("unknown algorithm %q", algo)
}

func runPlan(sys *twoface.System, c cli) (*twoface.Result, error) {
	pl, err := sys.LoadPlan(c.plan)
	if err != nil {
		return nil, err
	}
	if !c.quiet {
		st := pl.Stats()
		fmt.Printf("loaded plan: %d nonzeros, %d sync / %d async stripes\n", st.TotalNNZ, st.SyncStripes, st.AsyncStripes)
	}
	// The plan knows B's required row count through its layout.
	b := twoface.RandomDense(pl.NumCols(), c.k, c.seed+1)
	return pl.Multiply(b)
}

func buildReport(c cli, res *twoface.Result, tracer *twoface.Tracer) *twoface.RunReport {
	rep := twoface.NewRunReport("twoface-run")
	rep.Config = map[string]any{
		"in": c.in, "matrix": c.name, "plan": c.plan, "scale": c.scale,
		"seed": c.seed, "algo": strings.ToLower(c.algo), "K": c.k, "p": c.p,
		"verify": c.verify,
	}
	if c.chaosSeed != 0 {
		rep.Config["chaos_seed"] = c.chaosSeed
	}
	if c.faultPlan != "" {
		rep.Config["fault_plan"] = c.faultPlan
	}
	if c.chaosCrash {
		rep.Config["chaos_crash"] = true
	}
	if c.recover {
		rep.Config["recover"] = true
		if c.ckptEvery > 0 {
			rep.Config["checkpoint_interval"] = c.ckptEvery
		}
	}
	rep.SetRun(res.Breakdowns, res.Transfer, res.ModeledSeconds, res.Wall)
	rep.SetResilience(res.TotalResilience)
	snap := twoface.DefaultMetrics().Snapshot()
	rep.Metrics = &snap
	if tracer != nil {
		rep.Trace = tracer.Info()
		rep.Trace.File = c.traceOut
		// The tracer's attribution is the ledger one plus per-op detail and
		// dropped-span caveats; prefer it over SetRun's ledger-only analysis.
		if cp := tracer.CriticalPath(); cp != nil {
			rep.CriticalPath = cp
			for _, w := range cp.Warnings {
				rep.Warn("%s", w)
			}
		}
	}
	return rep
}

func report(res *twoface.Result) {
	kind := "modeled"
	if res.Measured {
		kind = "measured"
	}
	fmt.Printf("%s time: %.4g s (wall %v)\n", kind, res.ModeledSeconds, res.Wall)
	fmt.Printf("per-node breakdown (%s seconds):\n", kind)
	fmt.Printf("  %4s  %10s %10s %10s %10s %10s %10s\n", "node", "SyncComm", "SyncComp", "Overlap", "AsyncComm", "AsyncComp", "Other")
	var overlap, serial float64
	for i, bd := range res.Breakdowns {
		fmt.Printf("  %4d  %10.3g %10.3g %10.3g %10.3g %10.3g %10.3g\n", i, bd.SyncComm, bd.SyncComp, bd.SyncOverlap, bd.AsyncComm, bd.AsyncComp, bd.Other)
		overlap += bd.SyncOverlap
		serial += bd.SyncComm + bd.SyncComp
	}
	if overlap > 0 && serial > 0 {
		fmt.Printf("sync overlap: %.4g s hidden by pipelining (%.0f%% of the serial sync half)\n",
			overlap, 100*overlap/serial)
	}
	t := res.TotalTransfer
	if t.TotalBytes() > 0 {
		fmt.Printf("data moved: %.2f MB collective in %d ops, %.2f MB one-sided in %d gets (%d regions)\n",
			float64(t.CollectiveBytes)/1e6, t.CollectiveMsgs, float64(t.OneSidedBytes)/1e6, t.OneSidedGets, t.OneSidedMsgs)
	}
	if rc := res.RowCache; rc.Hits+rc.Misses > 0 {
		fmt.Printf("row cache: %d hits / %d misses (%.0f%% hit rate), %.2f MB not re-fetched\n",
			rc.Hits, rc.Misses, 100*rc.HitRate(), float64(rc.SavedBytes)/1e6)
	}
}

func loadMatrix(in, name string, scale float64, seed uint64) (*twoface.SparseMatrix, error) {
	switch {
	case in != "" && name != "":
		return nil, fmt.Errorf("use -in or -matrix, not both")
	case in != "":
		if strings.HasSuffix(in, ".bin") {
			return twoface.ReadBinaryFile(in)
		}
		return twoface.ReadMatrixMarketFile(in)
	case name != "":
		for _, m := range twoface.Matrices() {
			if m == name {
				return twoface.Generate(name, scale, seed), nil
			}
		}
		return nil, fmt.Errorf("unknown matrix %q (see twoface-gen -list)", name)
	}
	return nil, fmt.Errorf("one of -in, -matrix, or -plan is required")
}
