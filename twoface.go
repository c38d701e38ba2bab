// Package twoface is a from-scratch Go implementation of Two-Face, the
// hybrid collective/one-sided distributed SpMM algorithm of Block et al.
// (ASPLOS 2024), together with the full substrate its evaluation needs: a
// simulated multi-node message-passing runtime with a calibrated
// virtual-time network model, the paper's baselines (dense shifting, full
// replication, coarse- and fine-grained one-sided), synthetic analogs of the
// paper's eight benchmark matrices, and a harness that regenerates every
// table and figure of the paper's evaluation.
//
// # Quick start
//
//	a := twoface.Generate("web", 0.1, 42)          // a paper-matrix analog
//	b := twoface.RandomDense(int(a.NumCols), 128, 1)
//	sys, err := twoface.New(twoface.Options{Nodes: 8, DenseColumns: 128})
//	if err != nil { ... }
//	plan, err := sys.Preprocess(a)                 // classify stripes once
//	if err != nil { ... }
//	res, err := plan.Multiply(b)                   // C = A x B, many times
//	if err != nil { ... }
//	_ = res.C                                      // the product
//	_ = res.ModeledSeconds                         // time on the modeled cluster
//
// Preprocessing is the expensive step (the paper amortizes it over hundreds
// of SpMM iterations in GNN training); Multiply may be called repeatedly
// with different dense inputs against the same plan.
//
// # Layout
//
// The paper's primary contribution lives in internal/core (partitioner,
// preprocessing model, Algorithms 1-3); internal/cluster is the simulated
// machine; internal/baselines holds the compared algorithms;
// internal/harness regenerates the evaluation. See DESIGN.md for the full
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package twoface

import (
	"log/slog"

	"twoface/internal/chaos"
	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/dense"
	"twoface/internal/gen"
	"twoface/internal/model"
	"twoface/internal/obs"
	"twoface/internal/sparse"
)

// Re-exported substrate types. The facade keeps downstream code to a single
// import for common use; power users can reach the internal packages'
// functionality through these aliases.
type (
	// SparseMatrix is a coordinate-format sparse matrix (the A operand).
	SparseMatrix = sparse.COO
	// DenseMatrix is a row-major dense matrix (the B and C operands).
	DenseMatrix = dense.Matrix
	// NetModel describes the simulated machine's performance.
	NetModel = cluster.NetModel
	// Coefficients are the preprocessing model's classifier parameters.
	Coefficients = model.Coefficients
	// Breakdown is a per-node modeled-time ledger (Figure 10 categories).
	Breakdown = cluster.Breakdown
	// Result is the outcome of one distributed SpMM.
	Result = core.Result
	// SDDMMResult is the outcome of one distributed SDDMM.
	SDDMMResult = core.SDDMMResult
	// PrepStats summarizes a preprocessing run.
	PrepStats = core.PrepStats
	// TransferStats are one rank's honest data-movement counters.
	TransferStats = cluster.TransferStats
	// RowCacheStats summarize a run's remote-row cache effectiveness (see
	// Result.RowCache and Options.RowCacheElems).
	RowCacheStats = core.RowCacheStats
	// TraceEvent is one traced transfer (see Options.TraceEvents).
	TraceEvent = cluster.Event
	// SpanRecorder observes virtual-time spans (see Options.SpanRecorder).
	SpanRecorder = cluster.SpanRecorder
	// Tracer collects virtual-time spans and exports Chrome trace JSON.
	Tracer = obs.Tracer
	// Metrics is the counter/gauge/histogram registry of internal/obs.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's values.
	MetricsSnapshot = obs.Snapshot
	// RunReport is the structured JSON document describing one run.
	RunReport = obs.Report
	// FaultPlan is a seeded, deterministic fault-injection plan (see
	// Options.Chaos and internal/chaos).
	FaultPlan = chaos.Plan
	// RetryPolicy governs the cluster's retry/backoff behaviour under
	// injected faults.
	RetryPolicy = cluster.RetryPolicy
	// ResilienceStats count a run's injected faults, retries, and
	// degradations (see Result.Resilience).
	ResilienceStats = cluster.ResilienceStats
	// OpsServer serves the live ops endpoint: /metrics (OpenMetrics),
	// /report, /healthz, and /debug/pprof over HTTP (see ServeOps).
	OpsServer = obs.Server
	// CriticalPath is the makespan attribution of one run: the straggler
	// rank, its critical half, the dominant phase, and per-rank barrier wait.
	CriticalPath = obs.CriticalPath
	// ReportDiff is a benchstat-style comparison of two run reports.
	ReportDiff = obs.Diff
	// Transport is the transfer-level backend seam (see Options.Transport):
	// the in-process virtual-time simulator by default, or a wall-clock
	// multi-process backend such as internal/transport/tcp.
	Transport = cluster.Transport
)

// NewMemTransport returns the in-process simulator transport for p ranks —
// the backend Options.Transport defaults to. Exported for conformance
// testing and for embedding the simulator behind the same seam real
// backends use.
func NewMemTransport(p int) (Transport, error) { return cluster.NewMemTransport(p) }

// NewTracer returns an empty virtual-time span tracer (per-rank span cap;
// <= 0 uses the default). Attach it through Options.SpanRecorder.
func NewTracer(perRankLimit int) *Tracer { return obs.NewTracer(perRankLimit) }

// DefaultMetrics returns the process-wide metrics registry that the
// executor's instrumentation writes to. It starts disabled; call
// SetEnabled(true) before a run to collect.
func DefaultMetrics() *Metrics { return obs.Default }

// NewRunReport starts a run report for the named tool, stamped with build
// provenance (Go version, VCS commit when available).
func NewRunReport(tool string) *RunReport { return obs.NewReport(tool) }

// ServeOps starts the live ops HTTP endpoint on addr (host:port; ":0" picks
// a free port), serving the default metrics registry at /metrics in
// OpenMetrics text format alongside /report, /healthz, and /debug/pprof.
// An empty addr is a no-op returning nil. Close the server when done.
func ServeOps(addr string) (*OpsServer, error) { return obs.Serve(addr) }

// SetupLogging parses a -log-level flag value ("" = off, or debug | info |
// warn | error), installs a process-wide stderr slog logger (JSON lines
// when asJSON) stamped with the tool name and a fresh run ID, and returns
// it. Pass the result to Options.Logger to attach rank-attributed cluster
// logging.
func SetupLogging(tool, level string, asJSON bool) (*slog.Logger, string, error) {
	return obs.SetupLogging(tool, level, asJSON)
}

// AnalyzeCriticalPath attributes a run's makespan from its per-rank
// breakdowns: straggler, critical half, dominant phase, barrier wait. The
// result's per-rank ledger fields are copied bit-for-bit from the input.
func AnalyzeCriticalPath(breakdowns []Breakdown) *CriticalPath {
	return obs.AnalyzeBreakdowns(breakdowns)
}

// CompareReportFiles diffs two run report files with the
// default noise thresholds — the twoface-bench -compare-report engine.
func CompareReportFiles(oldPath, newPath string) (*ReportDiff, error) {
	return obs.CompareFiles(oldPath, newPath, obs.DiffOptions{})
}

// RandomFaultPlan generates a survivable fault plan for a p-node cluster,
// deterministic in seed: stragglers, transient get failures within the
// retry budget, a persistently unreachable get target that forces the
// degradation path, and straggling multicast legs — but no crashes and no
// collective failure beyond the budget, so every algorithm must complete
// bit-exactly under it. This is what -chaos-seed feeds to twoface-run and
// twoface-bench.
func RandomFaultPlan(seed uint64, p int) *FaultPlan { return chaos.RandomPlan(seed, p) }

// RandomFaultPlanWithCrash is RandomFaultPlan plus one rank crash at a
// random early virtual time, deterministic in seed. The result is never
// survivable fail-clean — run it with Options.Recover (twoface-run
// -recover) so the survivors re-execute the dead rank's work and the run
// still completes. The non-crash faults are byte-identical to
// RandomFaultPlan's for the same seed.
func RandomFaultPlanWithCrash(seed uint64, p int) *FaultPlan {
	return chaos.RandomPlanWithCrash(seed, p)
}

// LoadFaultPlan reads and validates a JSON fault plan file (the
// twoface-run -fault-plan format).
func LoadFaultPlan(path string) (*FaultPlan, error) { return chaos.LoadFile(path) }

// NewSparse returns an empty sparse matrix with the given shape.
func NewSparse(rows, cols int32) *SparseMatrix { return sparse.NewCOO(rows, cols, 0) }

// NewDense returns a zeroed dense matrix.
func NewDense(rows, cols int) *DenseMatrix { return dense.New(rows, cols) }

// RandomDense returns a dense matrix with entries uniform in [-1, 1),
// deterministic in seed.
func RandomDense(rows, cols int, seed uint64) *DenseMatrix { return dense.Random(rows, cols, seed) }

// DefaultNet returns the simulated machine model calibrated to the paper's
// Table 3 measurements of NCSA Delta.
func DefaultNet() NetModel { return cluster.Default() }

// Generate builds a synthetic analog of one of the paper's Table 1 matrices
// ("mawi", "queen", "stokes", "kmer", "arabic", "twitter", "web",
// "friendster") at the given scale (1.0 is roughly 1/512 of the paper's
// dimensions). It panics on an unknown name; use Matrices for the roster.
func Generate(name string, scale float64, seed uint64) *SparseMatrix {
	spec, err := gen.ByName(name)
	if err != nil {
		panic(err)
	}
	return spec.Build(scale, seed)
}

// StripeWidthFor returns the paper-scaled stripe width for a registry matrix
// at the given scale.
func StripeWidthFor(name string, scale float64) int32 {
	spec, err := gen.ByName(name)
	if err != nil {
		panic(err)
	}
	return spec.ScaledWidth(scale)
}

// Matrices lists the short names of the paper's evaluation matrices.
func Matrices() []string {
	specs := gen.Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Short
	}
	return names
}

// ReadMatrixMarketFile loads a sparse matrix from a Matrix Market file.
func ReadMatrixMarketFile(path string) (*SparseMatrix, error) {
	return sparse.ReadMatrixMarketFile(path)
}

// WriteMatrixMarketFile stores a sparse matrix as Matrix Market text.
func WriteMatrixMarketFile(path string, m *SparseMatrix) error {
	return sparse.WriteMatrixMarketFile(path, m)
}

// ReadBinaryFile loads a sparse matrix from the bespoke binary format.
func ReadBinaryFile(path string) (*SparseMatrix, error) { return sparse.ReadBinaryFile(path) }

// WriteBinaryFile stores a sparse matrix in the bespoke binary format.
func WriteBinaryFile(path string, m *SparseMatrix) error { return sparse.WriteBinaryFile(path, m) }

// Reference computes C = A x B with the sequential reference kernel, for
// checking distributed results.
func Reference(a *SparseMatrix, b *DenseMatrix) (*DenseMatrix, error) {
	return a.ToCSR().Mul(b)
}

// DeriveCoefficients returns the classifier coefficients that describe the
// given machine, as the paper's calibration would fit them.
func DeriveCoefficients(net NetModel) Coefficients {
	return core.CoefficientsFromNet(net, 8)
}
