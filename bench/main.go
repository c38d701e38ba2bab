// Command bench is the repository's wall-clock benchmark: four fixed
// workloads, five end-to-end metrics on each, and per-layer metrics measured
// from outside the program — by timing calls into its packages and by
// wrapping cluster.Transport. See README.md in this directory.
//
//	go run ./bench                      every workload, untraced then traced
//	go run ./bench -workload sim-hub    one workload
//	go run ./bench -aa                  the suite twice; fails if the two disagree beyond the bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                    one run; the last line of output is its result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them)")
		seed    = flag.Uint64("seed", 42, "seed of every matrix, operand and request schedule")
		seconds = flag.Float64("seconds", 20, "length of one run's measured phase")
		trace   = flag.Int("trace", -1, "0: one untraced run, 1: one traced run, printing the result as one JSON line; -1: both, as a table")
		aa      = flag.Bool("aa", false, "run everything twice and compare the end-to-end metrics against their bounds")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for latest.json and trace-<workload>.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *aa, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, aa bool, outDir string) error {
	// The workloads run two callers or two ranks at once; on one core they
	// would measure the scheduler.
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("need at least 2 CPUs, have %d", runtime.NumCPU())
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	selected := workloads()
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	cfg := runConfig{seed: seed, seconds: seconds, size: fullSize, outDir: outDir, progress: os.Stderr}

	if trace == 0 || trace == 1 {
		if len(selected) != 1 {
			return fmt.Errorf("-trace %d runs one workload; name it with -workload", trace)
		}
		cfg.workload, cfg.traced = selected[0], trace == 1
		return runOne(cfg)
	}

	first, err := runSuite(cfg, selected)
	if err != nil {
		return err
	}
	printSuite(first)
	if err := writeResult(filepath.Join(outDir, "latest.json"), first); err != nil {
		return err
	}
	if !aa {
		return first.failures()
	}
	second, err := runSuite(cfg, selected)
	if err != nil {
		return err
	}
	if err := writeResult(filepath.Join(outDir, "latest-aa.json"), second); err != nil {
		return err
	}
	if err := compareAA(first, second); err != nil {
		return err
	}
	if err := first.failures(); err != nil {
		return err
	}
	return second.failures()
}

// resultLine is the one JSON object a single run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf shapes a run as its result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func resultOf(res *runResult) (resultLine, error) {
	defs, required := endToEnd, true
	if res.Traced {
		defs, required = perLayer, false
	}
	metrics, err := report(defs, res.Metrics, required)
	return resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics}, err
}

// runOne performs a single run and prints its result line.
func runOne(cfg runConfig) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	result, err := resultOf(res)
	if err != nil {
		return err
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return res.failure()
}

// failure is the error of a run in which any op failed or returned a wrong
// result.
func (r *runResult) failure() error {
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed or returned a wrong result", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

// provenance is what a reader needs to compare two result files with no
// other context.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"run_seconds"`
	Started    string  `json:"started"`
}

// suiteResult is one pass over the selected workloads: an untraced and a
// traced run of each.
type suiteResult struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

func (s *suiteResult) failures() error {
	for _, r := range s.Runs {
		if err := r.failure(); err != nil {
			return err
		}
	}
	return nil
}

func (s *suiteResult) find(workload string, traced bool) *runResult {
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func runSuite(cfg runConfig, selected []workload) (*suiteResult, error) {
	out := &suiteResult{Provenance: provenance{
		Commit: commit(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Started: time.Now().UTC().Format(time.RFC3339),
	}}
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.traced = w, traced
			res, err := runWorkload(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if _, err := resultOf(res); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			out.Runs = append(out.Runs, res)
		}
	}
	return out, nil
}

// printSuite prints every metric by name with its unit, one column per
// workload.
func printSuite(s *suiteResult) {
	var names []string
	for _, r := range s.Runs {
		if !r.Traced {
			names = append(names, r.Workload)
		}
	}
	p := s.Provenance
	fmt.Printf("commit %s  %s  %s  nproc %d  GOMAXPROCS %d  seed %d  %gs per run\n\n",
		p.Commit, p.GoVersion, p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.Seed, p.Seconds)
	header := fmt.Sprintf("%-34s %-8s", "metric", "unit")
	for _, n := range names {
		header += fmt.Sprintf(" %14s", n)
	}
	table := func(title string, defs []metricDef, traced bool) {
		fmt.Println(title)
		fmt.Println(header)
		for _, d := range defs {
			line := fmt.Sprintf("%-34s %-8s", d.Name, d.Unit)
			for _, n := range names {
				line += fmt.Sprintf(" %14.6g", s.find(n, traced).Metrics[d.Name])
			}
			fmt.Println(line)
		}
		fmt.Println()
	}
	table("end-to-end (untraced run)", endToEnd, false)
	table("per-layer (traced run)", perLayer, true)
	line := fmt.Sprintf("%-34s %-8s", "attempted / failed", "count")
	for _, n := range names {
		u, t := s.find(n, false), s.find(n, true)
		line += fmt.Sprintf(" %14s", fmt.Sprintf("%d / %d", u.Attempted+t.Attempted, u.Failed+t.Failed))
	}
	fmt.Println(line)
}

// compareAA prints, for every end-to-end metric on every workload, both
// passes' values, their relative difference and the bound, and fails when a
// difference exceeds its bound: the bounds are only worth recording if the
// same code agrees with itself inside them.
func compareAA(a, b *suiteResult) error {
	fmt.Printf("\nA/A: two passes of the same code\n%-12s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	var over []string
	for _, ra := range a.Runs {
		if ra.Traced {
			continue
		}
		rb := b.find(ra.Workload, false)
		for _, d := range endToEnd {
			x, y := ra.Metrics[d.Name], rb.Metrics[d.Name]
			diff := (y - x) / x
			verdict := ""
			if abs(diff) > d.Bound {
				verdict = "  EXCEEDS"
				over = append(over, ra.Workload+"/"+d.Name)
			}
			fmt.Printf("%-12s %-12s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", ra.Workload, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A difference beyond the bound on %s", strings.Join(over, ", "))
	}
	return nil
}

func writeResult(path string, s *suiteResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit identifies the code: the VCS stamp of the build when there is one,
// else the working tree's HEAD, else "unknown" (a checkout without git);
// "+dirty" marks uncommitted changes.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		revision, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				revision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if revision != "" {
			return revision + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		revision := strings.TrimSpace(string(out))
		if changes, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(changes) > 0 {
			revision += "+dirty"
		}
		return revision
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return runtime.GOARCH
}
