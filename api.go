package twoface

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"twoface/internal/baselines"
	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/kernels"
)

// Options configures a Two-Face system. Zero values take the paper's
// defaults (Tables 2 and 3).
type Options struct {
	// Nodes is the simulated cluster size. Required.
	Nodes int
	// DenseColumns is K, the width of the dense operands. Required.
	DenseColumns int
	// StripeWidth is the sparse stripe width W. 0 picks a power of two near
	// cols/512, the paper's Table 1 scaling rule.
	StripeWidth int32
	// Net overrides the simulated machine model. Nil uses DefaultNet scaled
	// to the input matrix: fixed per-message and setup overheads shrink
	// proportionally for matrices smaller than the paper's (~50M rows), so
	// the overhead-to-payload ratios of the full-scale machine are
	// preserved. Provide an explicit NetModel to disable the auto-scaling.
	Net *NetModel
	// Coefficients overrides the classifier's cost model. Nil derives it
	// from the machine model, the ideal calibration outcome.
	Coefficients *Coefficients
	// MemBudgetElems caps each node's dense receive buffers, in float64
	// elements. 0 uses the core default (48 Mi elements).
	MemBudgetElems int64
	// RowPanelHeight is the synchronous work unit height (default 32 rows).
	RowPanelHeight int32
	// Workers is the real goroutine parallelism per node (wall-clock only;
	// modeled time uses the paper's thread counts). Default 4.
	Workers int
	// AsyncWorkers is the per-node goroutine count draining the one-sided
	// queue (wall-clock only, like Workers). Default 2.
	AsyncWorkers int
	// MaxAsyncBatchBytes caps how many fetched bytes one aggregated
	// one-sided request may carry (0 uses the core default of 1 MiB; 1 puts
	// every async stripe in a request of its own).
	MaxAsyncBatchBytes int64
	// RowCacheElems bounds each rank's remote-row cache, in float64
	// elements (0 uses the core default; negative disables the cache).
	RowCacheElems int64
	// Verify keeps the arithmetic on (default). Setting TimingOnly skips
	// the floating-point loops, which is how the experiment harness runs.
	TimingOnly bool
	// UseColumnClassifier switches from the paper's cost-model balancer to
	// the column-popularity heuristic of its future-work discussion: dense
	// stripes needed by at least ColumnSyncThreshold nodes go collective,
	// everything else one-sided.
	UseColumnClassifier bool
	// ColumnSyncThreshold tunes the column classifier; 0 means max(2, Nodes/4).
	ColumnSyncThreshold int
	// TraceEvents, when positive, enables per-rank transfer tracing (capped
	// at this many events per rank) on every cluster the system creates —
	// plans and baselines alike. Results then carry TraceEvents and
	// per-rank TraceDropped counts.
	TraceEvents int
	// SpanRecorder, when non-nil, receives a virtual-time span for every
	// ledger charge on every cluster the system creates (see obs.Tracer for
	// the standard recorder and its Chrome-trace exporter). Nil keeps
	// instrumentation off and modeled time bit-identical.
	SpanRecorder SpanRecorder
	// Logger, when non-nil, attaches structured logging to every cluster the
	// system creates: retries, degradations, and aborts come out as slog
	// records with rank attrs. Like span recording, logging is observation
	// only — modeled time and C stay bit-identical. Nil disables it.
	Logger *slog.Logger
	// AllowFMA opts the compute kernels into fused multiply-add assembly on
	// hosts that support it (amd64 FMA3). Fusing rounds once per
	// multiply-add instead of twice, so results may differ from the default
	// kernels by an ulp per accumulation — off by default to keep C
	// bit-identical across dispatch variants. Equivalent to setting
	// TWOFACE_ALLOW_FMA=1. Process-wide: the toggle rebinds the shared
	// kernel dispatch table, not just this System.
	AllowFMA bool
	// ForceGenericKernels pins the compute kernels to the portable pure-Go
	// loops, ignoring any SIMD assembly CPU detection found. The escape
	// hatch for ruling kernel dispatch out of a reproduction discrepancy.
	// Equivalent to TWOFACE_FORCE_GENERIC=1, and process-wide like AllowFMA.
	ForceGenericKernels bool
	// Chaos, when non-nil, attaches the seeded fault plan to every cluster
	// the system creates: stragglers stretch virtual-time charges, one-sided
	// gets suffer transient failures (retried with backoff, degrading to the
	// synchronous path when the budget runs out), multicast legs straggle or
	// fail, and ranks crash at virtual times. Survivable plans leave the
	// computed C bit-identical to the fault-free run. Nil keeps the machine
	// healthy and the fault machinery entirely out of the hot path. A plan
	// with crashes aborts the run unless Recover is set.
	Chaos *FaultPlan
	// Recover switches crashed ranks from fail-clean (abort the run) to
	// fail-recover: a crash becomes a membership transition, the survivors
	// fence at the next barrier and re-execute the dead rank's unfinished
	// work from its last virtual-time checkpoint, and Multiply and SDDMM
	// still complete with the full C (see DESIGN.md section 12). Only the
	// Two-Face executor recovers; the baselines stay fail-clean.
	Recover bool
	// CheckpointInterval is the virtual-time cadence (seconds) at which each
	// rank checkpoints its C panel and progress cursor when Recover is set.
	// 0 picks an interval worth ~50 checkpoint write costs, keeping the
	// modeled overhead of a fault-free run near 2%. Ignored without Recover.
	CheckpointInterval float64
	// Transport overrides the byte-movement backend. Nil (the default) uses
	// the in-process virtual-time simulator. A wall-clock backend (e.g.
	// internal/transport/tcp) turns the system into one rank of a
	// multi-process cluster: this process executes only the transport's
	// local ranks, ledgers measure real elapsed time, and communication-model
	// charges are reported as measured rather than modeled. The transport's
	// cluster size must equal Nodes. A provided transport is single-use:
	// create one Plan (or run one baseline) per System. Chaos and Recover
	// are rejected with a wall-clock transport — fault injection and
	// checkpoint cadence are virtual-time machinery.
	Transport Transport
}

// System is a configured simulated cluster ready to preprocess and multiply.
type System struct {
	opts Options
}

// New validates options.
func New(opts Options) (*System, error) {
	if opts.Nodes < 1 {
		return nil, fmt.Errorf("twoface: Options.Nodes must be >= 1, got %d", opts.Nodes)
	}
	if opts.DenseColumns < 1 {
		return nil, fmt.Errorf("twoface: Options.DenseColumns must be >= 1, got %d", opts.DenseColumns)
	}
	if opts.Transport != nil {
		if tp := opts.Transport.P(); tp != opts.Nodes {
			return nil, fmt.Errorf("twoface: Options.Transport serves %d ranks, Options.Nodes is %d", tp, opts.Nodes)
		}
		if opts.Transport.WallClock() && (opts.Chaos != nil || opts.Recover) {
			return nil, errors.New("twoface: Chaos and Recover are virtual-time machinery; they cannot run on a wall-clock transport")
		}
	}
	if opts.AllowFMA {
		kernels.SetAllowFMA(true)
	}
	if opts.ForceGenericKernels {
		kernels.SetForceGeneric(true)
	}
	return &System{opts: opts}, nil
}

// paperNativeRows is the matrix dimension at which DefaultNet's fixed
// overheads are calibrated (the paper's mid-size matrices).
const paperNativeRows = 50e6

// netFor resolves the machine model for a matrix of the given dimension.
func (s *System) netFor(rows int32) NetModel {
	if s.opts.Net != nil {
		return *s.opts.Net
	}
	f := paperNativeRows / float64(rows)
	if f < 1 {
		f = 1
	}
	return DefaultNet().Scaled(f)
}

// Net reports the machine model the system would use for a matrix with the
// given number of rows.
func (s *System) Net(rows int32) NetModel { return s.netFor(rows) }

// DenseColumns reports the configured dense width K.
func (s *System) DenseColumns() int { return s.opts.DenseColumns }

// Plan is a preprocessed sparse matrix bound to a system: the stripe
// classification, modified-COO matrices, and multicast metadata of the
// paper's section 5.1, reusable across many Multiply calls.
//
// A Plan is safe for concurrent use: Multiply, MultiplySampled, and SDDMM
// may be called from many goroutines. Calls on one Plan serialize under an
// internal mutex — the simulated cluster, the cross-run row cache, and the
// pooled per-run scratch are all single-run state — so concurrency within
// one Plan buys ordering safety, not speedup. Concurrent throughput comes
// from multiplying across distinct Plans (each has its own cluster), which
// is how the serving layer (internal/serve) schedules traffic.
type Plan struct {
	sys  *System
	prep *core.Prep
	clu  *cluster.Cluster

	// execMu serializes executions on this plan. The cluster's virtual
	// clocks, ledgers, and windows are reset per run, and the row cache's
	// per-run counters and B-identity check assume one run at a time;
	// interleaving two Execs on one cluster would corrupt both.
	execMu sync.Mutex
}

func (s *System) params(net NetModel) core.Params {
	p := core.Params{
		P: s.opts.Nodes, K: s.opts.DenseColumns, W: s.opts.StripeWidth,
		RowPanelHeight: s.opts.RowPanelHeight,
		MemBudgetElems: s.opts.MemBudgetElems,
		MaxBatchBytes:  s.opts.MaxAsyncBatchBytes,
		RowCacheElems:  s.opts.RowCacheElems,
	}
	if s.opts.Coefficients != nil {
		p.Coef = *s.opts.Coefficients
	} else {
		p.Coef = DeriveCoefficients(net)
	}
	if s.opts.UseColumnClassifier {
		p.Classifier = core.ClassifierColumn
		p.ColumnSyncThreshold = s.opts.ColumnSyncThreshold
	}
	return p
}

// newCluster builds a cluster with the system's observability options
// (transfer tracing, span recording) applied.
func (s *System) newCluster(net NetModel) (*cluster.Cluster, error) {
	var (
		clu *cluster.Cluster
		err error
	)
	if s.opts.Transport != nil {
		clu, err = cluster.NewWithTransport(s.opts.Transport, net)
	} else {
		clu, err = cluster.New(s.opts.Nodes, net)
	}
	if err != nil {
		return nil, err
	}
	if s.opts.TraceEvents > 0 {
		clu.EnableTrace(s.opts.TraceEvents)
	}
	if s.opts.SpanRecorder != nil {
		clu.SetSpanRecorder(s.opts.SpanRecorder)
	}
	if s.opts.Logger != nil {
		clu.SetLogger(s.opts.Logger)
	}
	if s.opts.Chaos != nil {
		inj, err := s.opts.Chaos.Injector(s.opts.Nodes)
		if err != nil {
			return nil, err
		}
		clu.SetFaultInjector(inj)
	}
	clu.SetRecovery(s.opts.Recover)
	return clu, nil
}

// Preprocess classifies the matrix's stripes and builds the runtime state.
// The plan is valid for any dense input with a.NumCols rows and the
// configured DenseColumns width.
func (s *System) Preprocess(a *SparseMatrix) (*Plan, error) {
	net := s.netFor(a.NumRows)
	params := s.params(net)
	if params.W == 0 {
		params.W = core.AutoWidth(a.NumCols)
	}
	prep, err := core.Preprocess(a, params)
	if err != nil {
		return nil, err
	}
	clu, err := s.newCluster(net)
	if err != nil {
		return nil, err
	}
	return &Plan{sys: s, prep: prep, clu: clu}, nil
}

// Stats returns the preprocessing summary (stripe counts, modeled
// preprocessing cost, multicast fan-out).
func (p *Plan) Stats() PrepStats { return p.prep.Stats }

// NumRows reports the plan's sparse matrix row count (C's rows).
func (p *Plan) NumRows() int { return int(p.prep.Layout.NumRows) }

// NumCols reports the plan's sparse matrix column count (B's required rows).
func (p *Plan) NumCols() int { return int(p.prep.Layout.NumCols) }

// RowBlocks returns each rank's C row block [lo, hi) in rank order — the
// assembly map a multi-process runner needs to gather rank-local partial
// outputs into the full C.
func (p *Plan) RowBlocks() [][2]int {
	out := make([][2]int, len(p.prep.Nodes))
	for i := range p.prep.Nodes {
		out[i] = [2]int{int(p.prep.Nodes[i].RowLo), int(p.prep.Nodes[i].RowHi)}
	}
	return out
}

// Transport returns the byte-movement backend of the plan's cluster. With
// Options.Transport set this is that transport; multi-process runners use it
// to publish and gather C row blocks after Multiply.
func (p *Plan) Transport() Transport { return p.clu.Transport() }

// Multiply executes one distributed SpMM: C = A x B with the plan's A.
// Safe for concurrent use; concurrent calls on one Plan serialize.
func (p *Plan) Multiply(b *DenseMatrix) (*Result, error) {
	p.execMu.Lock()
	defer p.execMu.Unlock()
	return core.Exec(p.prep, b, p.clu, p.execOptions())
}

// SDDMM executes a distributed sampled dense-dense multiplication with the
// plan's sparsity pattern: C_ij = A_ij * dot(X[i,:], Y[j,:]) over A's
// nonzeros (paper section 9). X must be NumRows x K and Y NumCols x K. The
// communication schedule — which dense rows move collectively and which
// one-sidedly — is the SpMM plan's, reused verbatim.
func (p *Plan) SDDMM(x, y *DenseMatrix) (*SDDMMResult, error) {
	p.execMu.Lock()
	defer p.execMu.Unlock()
	return core.ExecSDDMM(p.prep, x, y, p.clu, p.execOptions())
}

// MultiplySampled runs a sampled SpMM (paper section 5.4): every nonzero of
// A survives with probability keep under a deterministic per-iteration mask,
// the offline classification and transfers staying fixed. Use a fresh seed
// per training iteration.
func (p *Plan) MultiplySampled(b *DenseMatrix, keep float64, seed uint64) (*Result, error) {
	opts := p.execOptions()
	opts.SampleKeep = keep
	opts.SampleSeed = seed
	p.execMu.Lock()
	defer p.execMu.Unlock()
	return core.Exec(p.prep, b, p.clu, opts)
}

// FingerprintDense returns the dense-operand identity hash used by the
// cross-run row cache to detect B changes between runs (DESIGN.md section
// 8): a strided 16-sample content hash that always mixes the final element.
// It is a mutation-detection heuristic, not a digest: two distinct operands
// can share a fingerprint, which is why the serving layer's request
// coalescing keys on exact operand identity (full-content hash plus a
// bitwise check) instead of this sample.
func FingerprintDense(b *DenseMatrix) uint64 {
	return core.FingerprintData(b.Data)
}

// Sampled reports whether an entry of A survives the sampling mask used by
// MultiplySampled with the given parameters.
func Sampled(row, col int32, seed uint64, keep float64) bool {
	return core.SampleMask(row, col, seed, keep)
}

// TraceSummary is an aggregated view of one rank's traced transfers.
type TraceSummary struct {
	Rank            int
	CollectiveElems int64
	OneSidedElems   int64
	OneSidedMsgs    int64
	Events          int
	// Dropped counts events this rank discarded after its buffer filled.
	Dropped int64
}

// EnableTrace turns on per-rank transfer tracing for subsequent Multiply /
// SDDMM calls on this plan (bounded to limit events per rank; <=0 uses the
// default cap).
func (p *Plan) EnableTrace(limit int) { p.clu.EnableTrace(limit) }

// TraceSummaries aggregates the traced events per rank. Call after a
// Multiply with tracing enabled.
func (p *Plan) TraceSummaries() []TraceSummary {
	events, dropped := p.clu.TraceByRank()
	var all []TraceEvent
	for _, ev := range events {
		all = append(all, ev...)
	}
	return SummarizeTrace(all, dropped, p.sys.opts.Nodes)
}

// SummarizeTrace aggregates traced transfer events per rank. dropped is the
// per-rank dropped-event count (as in Result.TraceDropped) and may be nil.
func SummarizeTrace(events []TraceEvent, dropped []int64, p int) []TraceSummary {
	out := make([]TraceSummary, p)
	for i := range out {
		out[i].Rank = i
		if i < len(dropped) {
			out[i].Dropped = dropped[i]
		}
	}
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= p {
			continue
		}
		s := &out[e.Rank]
		s.Events++
		switch e.Op {
		case cluster.TraceGet:
			s.OneSidedElems += e.Elems
			s.OneSidedMsgs += e.Msgs
		default:
			s.CollectiveElems += e.Elems
		}
	}
	return out
}

// Save writes the plan's preprocessing state to disk in the bespoke binary
// plan format, so twoface-prep can run offline and executors load the result
// (paper section 7.3's pipeline).
func (p *Plan) Save(path string) error { return core.WritePrepFile(path, p.prep) }

// LoadPlan reads a plan written by Save and binds it to this system. The
// system's Nodes and DenseColumns must match the stored plan.
func (s *System) LoadPlan(path string) (*Plan, error) {
	prep, err := core.ReadPrepFile(path)
	if err != nil {
		return nil, err
	}
	if prep.Params.P != s.opts.Nodes {
		return nil, fmt.Errorf("twoface: plan was built for %d nodes, system has %d", prep.Params.P, s.opts.Nodes)
	}
	if prep.Params.K != s.opts.DenseColumns {
		return nil, fmt.Errorf("twoface: plan was built for K=%d, system has K=%d", prep.Params.K, s.opts.DenseColumns)
	}
	// Communication knobs are runtime policy, not part of the stored
	// classification: the loading system's settings win over whatever
	// defaults the plan was normalized with when it was written.
	if s.opts.MaxAsyncBatchBytes != 0 {
		prep.Params.MaxBatchBytes = s.opts.MaxAsyncBatchBytes
	}
	if s.opts.RowCacheElems != 0 {
		prep.Params.RowCacheElems = s.opts.RowCacheElems
	}
	clu, err := s.newCluster(s.netFor(prep.Layout.NumRows))
	if err != nil {
		return nil, err
	}
	return &Plan{sys: s, prep: prep, clu: clu}, nil
}

func (p *Plan) execOptions() core.ExecOptions {
	return core.ExecOptions{
		AsyncWorkers:       p.sys.opts.AsyncWorkers,
		SyncWorkers:        p.sys.opts.Workers,
		SkipCompute:        p.sys.opts.TimingOnly,
		CheckpointInterval: p.sys.opts.CheckpointInterval,
	}
}

// Multiply is the one-shot convenience: preprocess + multiply in one call.
// Applications that reuse A (GNN training, iterative solvers) should hold a
// Plan instead to amortize preprocessing.
func Multiply(a *SparseMatrix, b *DenseMatrix, opts Options) (*Result, error) {
	if opts.DenseColumns == 0 {
		opts.DenseColumns = b.Cols
	}
	sys, err := New(opts)
	if err != nil {
		return nil, err
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		return nil, err
	}
	return plan.Multiply(b)
}

// Baseline names one of the paper's comparison algorithms.
type Baseline string

// The baseline roster (paper Table 4).
const (
	DenseShift1 Baseline = "DS1"
	DenseShift2 Baseline = "DS2"
	DenseShift4 Baseline = "DS4"
	DenseShift8 Baseline = "DS8"
	Allgather   Baseline = "Allgather"
	AsyncCoarse Baseline = "AsyncCoarse"
	AsyncFine   Baseline = "AsyncFine"
)

// RunBaseline executes a baseline algorithm on the system's cluster. For
// AsyncFine, the stripe width follows the system's StripeWidth (or the
// Table 1 auto rule).
func (s *System) RunBaseline(alg Baseline, a *SparseMatrix, b *DenseMatrix) (*Result, error) {
	clu, err := s.newCluster(s.netFor(a.NumRows))
	if err != nil {
		return nil, err
	}
	opts := baselines.Options{
		Workers:        s.opts.Workers,
		MemBudgetElems: s.opts.MemBudgetElems,
		SkipCompute:    s.opts.TimingOnly,
	}
	switch alg {
	case DenseShift1, DenseShift2, DenseShift4, DenseShift8:
		var c int
		switch alg {
		case DenseShift1:
			c = 1
		case DenseShift2:
			c = 2
		case DenseShift4:
			c = 4
		default:
			c = 8
		}
		return baselines.DenseShift(a, b, clu, c, opts)
	case Allgather:
		return baselines.Allgather(a, b, clu, opts)
	case AsyncCoarse:
		return baselines.AsyncCoarse(a, b, clu, opts)
	case AsyncFine:
		w := s.opts.StripeWidth
		if w == 0 {
			w = core.AutoWidth(a.NumCols)
		}
		return baselines.AsyncFine(a, b, clu, w, opts)
	}
	return nil, fmt.Errorf("twoface: unknown baseline %q", alg)
}

// IsOutOfMemory reports whether an error from RunBaseline means the
// algorithm's replication exceeded the per-node memory budget (the blank
// bars of the paper's figures).
func IsOutOfMemory(err error) bool {
	return errors.Is(err, baselines.ErrOutOfMemory)
}
