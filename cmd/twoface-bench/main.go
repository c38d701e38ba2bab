// Command twoface-bench regenerates the paper's evaluation tables and
// figures on the simulated cluster, the section 5.3 parameter search, and
// the extension ablations.
//
// Usage:
//
//	twoface-bench -exp all                 # everything, default scale
//	twoface-bench -exp fig8 -p 8 -scale 1  # one experiment
//	twoface-bench -exp fig11 -full         # add p=32,64 to the scaling study
//
// Experiments, in the order -exp all runs them: table1, fig2, fig7, fig8,
// fig9, table3 (the section 6.2 calibration), table5, fig10, fig11, table6,
// fig12, volume (received bytes), comm (one-sided aggregation and row
// cache), seeds (generator-seed spread), tune (the section 5.3 search) and
// ablations (one knob at a time).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"twoface"
	"twoface/internal/harness"
	"twoface/internal/kernels"
	"twoface/internal/obs"
)

type cli struct {
	exp        string
	scale      float64
	p          int
	seed       uint64
	workers    int
	verify     bool
	full       bool
	asJSON     bool
	chaosSeed  uint64
	faultPlan  string
	recover    bool
	ckptEvery  float64
	report     string
	commOut    string
	forceGen   bool
	allowFMA   bool
	cpuProfile string
	memProfile string
	listen     string
	logLevel   string
	logJSON    bool
	compareRep string
	compFail   bool
}

// register declares every flag on fs, bound to c's fields.
func (c *cli) register(fs *flag.FlagSet) {
	fs.StringVar(&c.exp, "exp", "all", "experiment to run: "+strings.Join(experimentNames(), "|"))
	fs.Float64Var(&c.scale, "scale", 1.0, "matrix scale relative to the registry (1.0 = 1/512 of the paper)")
	fs.IntVar(&c.p, "p", 8, "number of simulated nodes")
	fs.Uint64Var(&c.seed, "seed", 42, "generator seed")
	fs.IntVar(&c.workers, "workers", 4, "real goroutines per node")
	fs.BoolVar(&c.verify, "verify", false, "run real arithmetic (slow) instead of timing-only mode")
	fs.BoolVar(&c.full, "full", false, "extend fig11 to 32 and 64 nodes")
	fs.BoolVar(&c.asJSON, "json", false, "emit machine-readable JSON instead of text tables")
	fs.Uint64Var(&c.chaosSeed, "chaos-seed", 0, "run every algorithm under a random survivable fault plan with this seed (0 = off)")
	fs.StringVar(&c.faultPlan, "fault-plan", "", "run every algorithm under the JSON fault plan at this path")
	fs.BoolVar(&c.recover, "recover", false, "recover crashed ranks from checkpoints instead of aborting (TwoFace runs only)")
	fs.Float64Var(&c.ckptEvery, "checkpoint-interval", 0, "virtual seconds between checkpoints under -recover (0 = auto)")
	fs.StringVar(&c.report, "report", "", "write a structured JSON report of this invocation")
	fs.StringVar(&c.commOut, "comm-out", "", "with -exp comm: write the per-matrix aggregation rows as JSON")
	fs.BoolVar(&c.forceGen, "force-generic", false, "pin compute kernels to the portable pure-Go loops (no SIMD dispatch)")
	fs.BoolVar(&c.allowFMA, "allow-fma", false, "opt compute kernels into fused multiply-add assembly (ulp-level drift vs default)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile")
	fs.StringVar(&c.listen, "listen", "", "serve the live ops endpoint (/metrics, /report, /healthz, /debug/pprof) on this host:port")
	fs.StringVar(&c.logLevel, "log-level", "", "structured logging to stderr at this level: debug|info|warn|error (empty = off)")
	fs.BoolVar(&c.logJSON, "log-json", false, "emit log records as JSON lines (with -log-level)")
	fs.StringVar(&c.compareRep, "compare-report", "", "compare two report files (OLD,NEW) benchstat-style and exit")
	fs.BoolVar(&c.compFail, "compare-fail", false, "with -compare-report: exit non-zero when any metric regressed")
}

func main() {
	var c cli
	c.register(flag.CommandLine)
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "twoface-bench:", err)
		os.Exit(1)
	}
}

// config maps the flags onto the harness configuration — the one place a
// flag reaches the library options every experiment runs with. The logger,
// which is not a flag value, is attached by run.
func (c cli) config() (harness.Config, error) {
	cfg := harness.Config{Scale: c.scale, Seed: c.seed, Options: twoface.Options{
		Nodes: c.p, Workers: c.workers, TimingOnly: !c.verify,
		Recover: c.recover, CheckpointInterval: c.ckptEvery,
		ForceGenericKernels: c.forceGen, AllowFMA: c.allowFMA,
	}}
	switch {
	case c.faultPlan != "" && c.chaosSeed != 0:
		return cfg, errors.New("use -chaos-seed or -fault-plan, not both")
	case c.faultPlan != "":
		plan, err := twoface.LoadFaultPlan(c.faultPlan)
		if err != nil {
			return cfg, err
		}
		cfg.Chaos = plan
	case c.chaosSeed != 0:
		cfg.Chaos = twoface.RandomFaultPlan(c.chaosSeed, c.p)
	}
	return cfg, nil
}

func run(c cli) error {
	if c.compareRep != "" {
		return compareReports(c.compareRep, c.compFail)
	}
	logger, _, err := twoface.SetupLogging("twoface-bench", c.logLevel, c.logJSON)
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	if c.logLevel != "" {
		cfg.Logger = logger
	}
	// The kernel toggles apply here rather than at the first twoface.New:
	// -exp table3's calibration runs on core directly and never calls it.
	if cfg.AllowFMA {
		kernels.SetAllowFMA(true)
	}
	if cfg.ForceGenericKernels {
		kernels.SetForceGeneric(true)
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
	if c.report != "" || c.listen != "" {
		obs.Default.SetEnabled(true)
	}

	start := time.Now()
	srv, err := twoface.ServeOps(c.listen)
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		srv.SetStatus("running")
		fmt.Printf("ops endpoint: http://%s (/metrics, /report, /healthz, /debug/pprof)\n", srv.Addr())
	}
	if err := runExperiments(cfg, c); err != nil {
		return err
	}
	if srv != nil {
		srv.SetStatus("done")
	}
	if c.report != "" {
		if err := writeReport(c.report, cfg, strings.ToLower(c.exp), time.Since(start), srv); err != nil {
			return err
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
		return f.Close()
	}
	return nil
}

// writeReport emits the invocation-level report (there is no single modeled
// run to validate here, so it is written directly).
func writeReport(path string, cfg harness.Config, exp string, wall time.Duration, srv *obs.Server) error {
	rep := obs.NewReport("twoface-bench")
	rep.Config = map[string]any{
		"exp": exp, "scale": cfg.Scale, "p": cfg.Nodes, "seed": cfg.Seed,
		"workers": cfg.Workers, "verify": !cfg.TimingOnly,
	}
	if cfg.Chaos != nil {
		rep.Config["chaos_seed"] = cfg.Chaos.Seed
	}
	if cfg.Recover {
		rep.Config["recover"] = true
	}
	rep.WallSeconds = wall.Seconds()
	snap := obs.Default.Snapshot()
	rep.Metrics = &snap
	if srv != nil {
		srv.SetReport(rep)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("bench report: %s\n", path)
	return nil
}

// compareReports is the -compare-report mode: diff two report files
// benchstat-style. Regressions print but exit zero — a soft gate — unless
// failOnRegress makes them fatal.
func compareReports(spec string, failOnRegress bool) error {
	oldPath, newPath, ok := strings.Cut(spec, ",")
	if !ok || oldPath == "" || newPath == "" {
		return fmt.Errorf("-compare-report wants OLD,NEW file paths, got %q", spec)
	}
	d, err := obs.CompareFiles(strings.TrimSpace(oldPath), strings.TrimSpace(newPath), obs.DiffOptions{})
	if err != nil {
		return err
	}
	fmt.Print(d.String())
	if failOnRegress && d.Regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed", d.Regressions)
	}
	return nil
}

// experiment is one value of -exp: run returns its tables in print order.
type experiment struct {
	name string
	run  func(cfg harness.Config, c cli) ([]*harness.Table, error)
}

func one(t *harness.Table) ([]*harness.Table, error) { return []*harness.Table{t}, nil }

func oneErr(t *harness.Table, err error) ([]*harness.Table, error) { return []*harness.Table{t}, err }

// experiments is the registry, in the order -exp all runs it. The paper's
// tables and figures come first, the extensions after them, so the gated
// results_reference.txt only ever grows at its end.
var experiments = []experiment{
	{"table1", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.Table1()) }},
	{"fig2", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.Figure2()) }},
	{"fig7", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.SpeedupFigure(32)) }},
	{"fig8", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.SpeedupFigure(128)) }},
	{"fig9", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.SpeedupFigure(512)) }},
	{"table3", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return oneErr(cfg.Table3()) }},
	{"table5", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.Table5()) }},
	{"fig10", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.Figure10()) }},
	{"fig11", func(cfg harness.Config, c cli) ([]*harness.Table, error) {
		counts := []int{1, 2, 4, 8, 16}
		if c.full {
			counts = append(counts, 32, 64)
		}
		return cfg.Figure11(counts), nil
	}},
	{"table6", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.Table6()) }},
	{"fig12", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return cfg.Figure12(), nil }},
	{"volume", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.CommVolume(128)) }},
	{"comm", func(cfg harness.Config, c cli) ([]*harness.Table, error) {
		rows, t, err := cfg.CommAggregation(128)
		if err != nil || c.commOut == "" {
			return []*harness.Table{t}, err
		}
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(c.commOut, append(b, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("comm aggregation rows: %s\n", c.commOut)
		return one(t)
	}},
	{"seeds", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return one(cfg.SeedSweep(128, nil)) }},
	{"tune", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return oneErr(cfg.Tune()) }},
	{"ablations", func(cfg harness.Config, _ cli) ([]*harness.Table, error) { return cfg.Ablations() }},
}

// experimentNames lists the registry's names, then "all".
func experimentNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, "all")
}

// runExperiments runs the experiment c.exp names, or every one for "all",
// printing each experiment's tables as it finishes.
func runExperiments(cfg harness.Config, c cli) error {
	exp := strings.ToLower(c.exp)
	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		tables, err := e.run(cfg, c)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if !c.asJSON {
				fmt.Println(t.String())
				continue
			}
			b, err := t.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "twoface-bench: json:", err)
				continue
			}
			fmt.Println(string(b))
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want one of %s)", c.exp, strings.Join(experimentNames(), ", "))
	}
	return nil
}
