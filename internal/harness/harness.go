// Package harness drives the paper's evaluation (section 7): it generates
// the benchmark matrices, runs every algorithm on the simulated cluster, and
// renders each table and figure of the paper as text. DESIGN.md's experiment
// index maps each paper artifact to a function here.
package harness

import (
	"errors"
	"fmt"
	"math"

	"twoface/internal/baselines"
	"twoface/internal/chaos"
	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/dense"
	"twoface/internal/gen"
	"twoface/internal/model"
	"twoface/internal/obs"
	"twoface/internal/sparse"
)

// paperScaleDivisor is the dimension ratio between the paper's matrices and
// this repository's registry at Scale=1.0 (see gen.Spec).
const paperScaleDivisor = 512

// Config selects the evaluation operating point. Zero values take defaults
// mirroring the paper's (scaled) setup.
type Config struct {
	Scale   float64 // matrix scale relative to the registry; default 1.0
	P       int     // nodes; default 8 (paper default: 32)
	Seed    uint64  // generator seed; default 42
	Workers int     // real goroutines per node for kernels; default 4
	// AsyncWorkers is the per-node goroutine count draining the one-sided
	// queue (wall-clock only); default 2.
	AsyncWorkers int
	// Verify keeps the floating-point accumulation loops on so results can
	// be checked against the reference kernel. Off by default: the
	// experiments report modeled time, which is independent of the
	// arithmetic, and the test suite proves correctness separately.
	Verify bool
	// Chaos, when non-nil, runs every algorithm under this seeded fault
	// plan (compiled per node count, so one plan serves a p-sweep). Rank
	// indices beyond a particular run's node count are inert.
	Chaos *chaos.Plan
	// Recover switches crashed ranks from fail-clean aborts to checkpointed
	// fail-recover on the Two-Face executor (baselines stay fail-clean; a
	// crash there still aborts — see DESIGN.md section 12).
	Recover bool
	// CheckpointInterval is the virtual-time checkpoint cadence in seconds
	// under Recover; 0 picks the automatic ~2%-overhead cadence.
	CheckpointInterval float64
	// Listen, when non-empty, is the host:port of the live ops endpoint
	// (OpenMetrics /metrics, /report, /healthz, /debug/pprof) that StartOps
	// binds, so a long experiment sweep is scrapeable while it runs.
	Listen string
}

// StartOps starts the live ops HTTP server on c.Listen, exposing the
// default metrics registry. Returns nil (no server, no error) when Listen
// is empty. The caller owns the server and should Close it when the sweep
// finishes.
func (c Config) StartOps() (*obs.Server, error) { return obs.Serve(c.Listen) }

func (c Config) normalize() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.P == 0 {
		c.P = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.AsyncWorkers == 0 {
		c.AsyncWorkers = 2
	}
	return c
}

// machineScale is the fixed-overhead shrink factor for the simulated
// machine: our matrices are paper/(512/Scale) of the originals.
func (c Config) machineScale() float64 { return paperScaleDivisor / c.Scale }

// Net returns the simulated machine's network model at this config's scale.
func (c Config) Net() cluster.NetModel {
	return cluster.Default().Scaled(c.machineScale())
}

// Coef returns the classifier coefficients matched to the scaled machine —
// the ideal outcome of the paper's calibration step (section 6.2).
func (c Config) Coef() model.Coefficients {
	return core.CoefficientsFromNet(c.Net(), 8)
}

// MemBudget returns the per-node memory budget in float64 elements: the
// paper's 256 GiB nodes, scaled with the matrices.
func (c Config) MemBudget() int64 {
	return int64(float64(48<<20) * c.normalize().Scale)
}

// Algo names one of the compared algorithms (paper Table 4).
type Algo string

// The algorithm roster of the evaluation.
const (
	AlgoDS1         Algo = "DS1"
	AlgoDS2         Algo = "DS2"
	AlgoDS4         Algo = "DS4"
	AlgoDS8         Algo = "DS8"
	AlgoAllgather   Algo = "Allgather"
	AlgoAsyncCoarse Algo = "AsyncCoarse"
	AlgoAsyncFine   Algo = "AsyncFine"
	AlgoTwoFace     Algo = "TwoFace"
)

// FigureAlgos is the roster of Figures 7-9, in plot order.
var FigureAlgos = []Algo{AlgoAllgather, AlgoAsyncCoarse, AlgoAsyncFine, AlgoDS2, AlgoDS4, AlgoDS8, AlgoTwoFace}

// Outcome is one algorithm run on one workload.
type Outcome struct {
	Algo       Algo
	Modeled    float64 // modeled seconds (cluster makespan); the primary metric
	Breakdowns []cluster.Breakdown
	OOM        bool // the algorithm exceeded the per-node memory budget
	Err        error
	Prep       *core.PrepStats // Two-Face / AsyncFine only
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
	cc := c.normalize()
	out := Outcome{Algo: algo}
	clu, err := cluster.New(p, cc.Net())
	if err != nil {
		out.Err = err
		return out
	}
	if l := obs.ActiveLogger(); l != nil {
		clu.SetLogger(l)
	}
	if cc.Chaos != nil {
		inj, err := cc.Chaos.Injector(p)
		if err != nil {
			out.Err = err
			return out
		}
		clu.SetFaultInjector(inj)
	}
	clu.SetRecovery(cc.Recover)
	b := w.B(k)
	opts := baselines.Options{Workers: cc.Workers, MemBudgetElems: cc.MemBudget(), SkipCompute: !cc.Verify}

	var res *core.Result
	switch algo {
	case AlgoDS1, AlgoDS2, AlgoDS4, AlgoDS8:
		res, err = baselines.DenseShift(w.A, b, clu, dsFactor(algo), opts)
	case AlgoAllgather:
		res, err = baselines.Allgather(w.A, b, clu, opts)
	case AlgoAsyncCoarse:
		res, err = baselines.AsyncCoarse(w.A, b, clu, opts)
	case AlgoAsyncFine:
		res, err = c.runTwoFace(w, k, p, clu, ptr(1.0), &out)
	case AlgoTwoFace:
		res, err = c.runTwoFace(w, k, p, clu, nil, &out)
	default:
		out.Err = fmt.Errorf("harness: unknown algorithm %q", algo)
		return out
	}
	if err != nil {
		if isOOM(err) {
			out.OOM = true
		} else {
			out.Err = err
		}
		return out
	}
	out.Modeled = res.ModeledSeconds
	out.Breakdowns = res.Breakdowns
	return out
}

func (c Config) runTwoFace(w *Workload, k, p int, clu *cluster.Cluster, force *float64, out *Outcome) (*core.Result, error) {
	cc := c.normalize()
	params := core.Params{
		P: p, K: k, W: w.W,
		Coef:           cc.Coef(),
		ForceSplit:     force,
		MemBudgetElems: cc.MemBudget(),
	}
	prep, err := core.Preprocess(w.A, params)
	if err != nil {
		return nil, err
	}
	out.Prep = &prep.Stats
	return core.Exec(prep, w.B(k), clu, core.ExecOptions{
		AsyncWorkers: cc.AsyncWorkers, SyncWorkers: cc.Workers,
		SkipCompute: !cc.Verify, CheckpointInterval: cc.CheckpointInterval,
	})
}

func dsFactor(a Algo) int {
	switch a {
	case AlgoDS1:
		return 1
	case AlgoDS2:
		return 2
	case AlgoDS4:
		return 4
	case AlgoDS8:
		return 8
	}
	panic(fmt.Sprintf("harness: %q is not a dense-shifting algorithm", a))
}

func isOOM(err error) bool { return errors.Is(err, baselines.ErrOutOfMemory) }

func ptr[T any](v T) *T { return &v }

// Speedup returns base/x treating OOM or error as NaN (a blank figure bar).
func Speedup(base, x Outcome) float64 {
	if base.OOM || x.OOM || base.Err != nil || x.Err != nil || x.Modeled == 0 {
		return math.NaN()
	}
	return base.Modeled / x.Modeled
}
