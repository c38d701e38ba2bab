// Package harness drives the paper's evaluation (section 7): it generates
// the benchmark matrices, runs every algorithm on the simulated cluster, and
// renders each table and figure of the paper as text. DESIGN.md's experiment
// index maps each paper artifact to a function here.
package harness

import (
	"math"

	"twoface"
	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/dense"
	"twoface/internal/gen"
	"twoface/internal/sparse"
)

// paperScaleDivisor is the dimension ratio between the paper's matrices and
// this repository's registry at Scale=1.0 (see gen.Spec).
const paperScaleDivisor = 512

// Config selects the evaluation operating point. Zero values take defaults
// mirroring the paper's (scaled) setup.
type Config struct {
	Scale float64 // matrix scale relative to the registry; default 1.0
	Seed  uint64  // generator seed; default 42
	// Options configures every run the way it configures a library user's:
	// workers, TimingOnly, Chaos (compiled per run's node count, so one plan
	// serves a p-sweep), Recover, observability and kernel toggles. Nodes is
	// the node count of the fixed-p experiments (default 8, the paper's is
	// 32). Per run the harness sets the fields it owns: Nodes, DenseColumns,
	// StripeWidth, MemBudgetElems, Coefficients and Net.
	twoface.Options
}

func (c Config) normalize() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// machineScale is the fixed-overhead shrink factor for the simulated
// machine: our matrices are paper/(512/Scale) of the originals.
func (c Config) machineScale() float64 { return paperScaleDivisor / c.Scale }

// Net returns the simulated machine's network model at this config's scale.
func (c Config) Net() twoface.NetModel {
	return twoface.DefaultNet().Scaled(c.machineScale())
}

// Coef returns the classifier coefficients matched to the scaled machine —
// the ideal outcome of the paper's calibration step (section 6.2).
func (c Config) Coef() twoface.Coefficients {
	return twoface.DeriveCoefficients(c.Net())
}

// MemBudget returns the per-node memory budget in float64 elements: the
// paper's 256 GiB nodes, scaled with the matrices.
func (c Config) MemBudget() int64 {
	return int64(float64(48<<20) * c.normalize().Scale)
}

// options returns the library options of one run with k dense columns on p
// nodes over w: the configured Options with the fields the harness owns set.
// The machine is passed explicitly because the harness scales it by the
// matrix scale, not by the facade's row-count rule.
func (c Config) options(w *Workload, k, p int) twoface.Options {
	cc := c.normalize()
	o := cc.Options
	net, coef := cc.Net(), cc.Coef()
	o.Nodes, o.DenseColumns, o.StripeWidth = p, k, w.W
	o.MemBudgetElems = cc.MemBudget()
	o.Net, o.Coefficients = &net, &coef
	return o
}

// Algo names one of the compared algorithms (paper Table 4).
type Algo string

// The algorithm roster of the evaluation. Every algorithm but Two-Face is
// the library baseline of the same name.
const (
	AlgoDS1         = Algo(twoface.DenseShift1)
	AlgoDS2         = Algo(twoface.DenseShift2)
	AlgoDS4         = Algo(twoface.DenseShift4)
	AlgoDS8         = Algo(twoface.DenseShift8)
	AlgoAllgather   = Algo(twoface.Allgather)
	AlgoAsyncCoarse = Algo(twoface.AsyncCoarse)
	AlgoAsyncFine   = Algo(twoface.AsyncFine)
	AlgoTwoFace     = Algo("TwoFace")
)

// FigureAlgos is the roster of Figures 7-9, in plot order.
var FigureAlgos = []Algo{AlgoAllgather, AlgoAsyncCoarse, AlgoAsyncFine, AlgoDS2, AlgoDS4, AlgoDS8, AlgoTwoFace}

// Outcome is one algorithm run on one workload.
type Outcome struct {
	Algo       Algo
	Modeled    float64 // modeled seconds (cluster makespan); the primary metric
	Breakdowns []twoface.Breakdown
	OOM        bool // the algorithm exceeded the per-node memory budget
	Err        error
	Prep       *twoface.PrepStats // Two-Face only
}

// Workload is a generated matrix with its dense input, cached across
// algorithm runs.
type Workload struct {
	Spec gen.Spec
	A    *sparse.COO
	W    int32
	Bs   map[int]*dense.Matrix // per K
	seed uint64
}

// BuildWorkload generates the matrix for a spec at the config's scale.
func (c Config) BuildWorkload(spec gen.Spec) *Workload {
	cc := c.normalize()
	return &Workload{
		Spec: spec,
		A:    spec.Build(cc.Scale, cc.Seed),
		W:    spec.ScaledWidth(cc.Scale),
		Bs:   map[int]*dense.Matrix{},
		seed: cc.Seed,
	}
}

// B returns (building and caching on first use) the dense input for width k.
func (w *Workload) B(k int) *dense.Matrix {
	if b, ok := w.Bs[k]; ok {
		return b
	}
	b := dense.Random(int(w.A.NumCols), k, w.seed+uint64(k))
	w.Bs[k] = b
	return b
}

// Run executes one algorithm on a workload with the given K and node count,
// returning the outcome. Out-of-memory results are reported, not failed:
// they are the blank bars of the paper's figures.
func (c Config) Run(algo Algo, w *Workload, k, p int) Outcome {
	return run(algo, w, c.options(w, k, p))
}

// run executes one algorithm under opts and folds the result into an Outcome.
func run(algo Algo, w *Workload, opts twoface.Options) Outcome {
	out := Outcome{Algo: algo}
	res, prep, err := execute(algo, w, opts)
	out.Prep = prep
	switch {
	case twoface.IsOutOfMemory(err):
		out.OOM = true
	case err != nil:
		out.Err = err
	default:
		out.Modeled = res.ModeledSeconds
		out.Breakdowns = res.Breakdowns
	}
	return out
}

// execute runs one algorithm through the library, as a user would: Two-Face
// as New → Preprocess → Multiply, returning its plan's statistics too, and
// every other algorithm as RunBaseline.
func execute(algo Algo, w *Workload, opts twoface.Options) (*twoface.Result, *twoface.PrepStats, error) {
	sys, err := twoface.New(opts)
	if err != nil {
		return nil, nil, err
	}
	b := w.B(opts.DenseColumns)
	if algo != AlgoTwoFace {
		res, err := sys.RunBaseline(twoface.Baseline(algo), w.A, b)
		return res, nil, err
	}
	plan, err := sys.Preprocess(w.A)
	if err != nil {
		return nil, nil, err
	}
	st := plan.Stats()
	res, err := plan.Multiply(b)
	return res, &st, err
}

// params returns the core parameters of the Two-Face run Config.Run makes
// of w at K=k on Nodes nodes: the workload's Table 1 width, the harness's
// machine and memory budget, and Table 2's defaults for everything else.
func (c Config) params(w *Workload, k int) core.Params {
	cc := c.normalize()
	return core.Params{P: cc.Nodes, K: k, W: w.W, Coef: cc.Coef(), MemBudgetElems: cc.MemBudget()}
}

// twoFace runs Two-Face on core directly under params, for the experiments
// that sweep what the library facade does not expose (ForceSplit, the
// coalescing gap, the model's thread split, BalanceRows, sampling). It runs
// timing-only, since modeled time does not depend on the arithmetic, with
// one sync and one async worker per rank, which fixes the order of every
// float sum: a sweep prints the same digits on every run.
func (c Config) twoFace(w *Workload, params core.Params, exec core.ExecOptions) (*core.Prep, *core.Result, error) {
	prep, err := core.Preprocess(w.A, params)
	if err != nil {
		return nil, nil, err
	}
	clu, err := cluster.New(params.P, c.normalize().Net())
	if err != nil {
		return nil, nil, err
	}
	exec.SyncWorkers, exec.AsyncWorkers, exec.SkipCompute = 1, 1, true
	res, err := core.Exec(prep, w.B(params.K), clu, exec)
	return prep, res, err
}

// modeled is twoFace's modeled makespan of w at K=k under the default
// parameters, as set (if not nil) changes them.
func (c Config) modeled(w *Workload, k int, set func(*core.Params, *core.ExecOptions)) (float64, error) {
	params, exec := c.params(w, k), core.ExecOptions{}
	if set != nil {
		set(&params, &exec)
	}
	_, res, err := c.twoFace(w, params, exec)
	if err != nil {
		return 0, err
	}
	return res.ModeledSeconds, nil
}

// Speedup returns base/x treating OOM or error as NaN (a blank figure bar).
func Speedup(base, x Outcome) float64 {
	if base.OOM || x.OOM || base.Err != nil || x.Err != nil || x.Modeled == 0 {
		return math.NaN()
	}
	return base.Modeled / x.Modeled
}
