package core

import (
	"fmt"

	"twoface/internal/cluster"
	"twoface/internal/model"
)

// Params configures preprocessing and execution of Two-Face. Zero values are
// replaced by the paper's defaults (Tables 2 and 3) in Normalize.
type Params struct {
	P int   // nodes; required
	K int   // dense matrix columns; required
	W int32 // sparse stripe width; required (Table 1 scales it with the matrix)

	// RowPanelHeight is the height (rows) of the synchronous row panels,
	// the unit of work for sync compute threads. Table 2 default: 32.
	RowPanelHeight int32

	// Coef are the preprocessing-model coefficients used for stripe
	// classification. Default: model.PaperDefaults (Table 3).
	Coef model.Coefficients

	// MemBudgetElems caps the per-node dense receive buffer, in float64
	// elements. If the classification would exceed it, additional stripes
	// are flipped to asynchronous (section 6.3). It also bounds the
	// replication buffers of the baseline algorithms, whose whole-block
	// strategies fail outright when over budget. The default, 48 Mi
	// elements, corresponds to the paper's 256 GiB nodes at this
	// repository's 1/512 evaluation scale.
	MemBudgetElems int64

	// ForceSplit, when non-nil, bypasses the cost model: the given fraction
	// of each node's remote stripes (cheapest z first) is classified
	// asynchronous. 1.0 reproduces the Async Fine-Grained baseline; values
	// in between generate the forced configurations of the calibration step
	// (section 6.2).
	ForceSplit *float64

	// MaxCoalesceGap merges one-sided fetches of dense rows a < b whenever
	// b-a <= MaxCoalesceGap, fetching up to MaxCoalesceGap-1 useless rows to
	// save per-region overhead (section 5.2.3). 0 means the Table 2
	// default, 127/K + 1. 1 merges only adjacent rows.
	MaxCoalesceGap int32

	// MaxBatchBytes caps the estimated payload of one aggregated one-sided
	// get: the async scheduler batches the coalesced regions of consecutive
	// same-owner stripes into a single GetIndexed until the next stripe would
	// push the batch past this many bytes, keeping individual requests small
	// enough that virtual-time communication still overlaps compute. 0 means
	// the default, 1 MiB. Every batch holds at least one stripe, so a cap of
	// 1 is the per-stripe schedule: one get per async stripe.
	MaxBatchBytes int64

	// RowCacheElems bounds the per-rank remote-row cache, in float64
	// elements. Rows fetched one-sidedly are kept (up to this bound) and
	// served locally when a later Exec on the same Prep and same B needs
	// them again, dropping them from the outgoing region lists. 0 means the
	// default, 1 Mi elements (8 MiB) per rank; negative disables the cache.
	// The cache keys on the identity of B's backing array and is invalidated
	// whenever it changes; callers that mutate B in place between runs must
	// disable the cache (see DESIGN.md section 8).
	RowCacheElems int64

	// ModelSyncThreads and ModelAsyncCompThreads are the per-node thread
	// counts assumed by the virtual-time model (Table 2 defaults: 120 and
	// 8). They parameterize the compute-cost terms; actual goroutine
	// parallelism is an ExecOptions concern.
	ModelSyncThreads      int
	ModelAsyncCompThreads int

	// Classifier selects the stripe-classification strategy. The default is
	// the paper's cost-model balancer (section 4.2); ClassifierColumn is the
	// alternative the paper leaves as future work: classify a stripe
	// synchronous when its dense stripe is needed by many nodes, so
	// multicasts are reserved for widely shared data.
	Classifier Classifier
	// ColumnSyncThreshold is the needer count at or above which the column
	// classifier marks a stripe synchronous. 0 means max(2, P/4).
	ColumnSyncThreshold int

	// BalanceRows replaces the paper's equal row blocks with boundaries that
	// equalize nonzeros per node — an extension targeting the load imbalance
	// the paper reports for mawi (section 7.2). B's distribution is
	// unchanged, so only A/C ownership shifts.
	BalanceRows bool
}

// Classifier selects how remote stripes are split into sync/async.
type Classifier int

// Classifier strategies.
const (
	// ClassifierModel is the paper's section 4.2 cost-model balancer.
	ClassifierModel Classifier = iota
	// ClassifierColumn is the column-popularity heuristic of the paper's
	// future-work discussion: dense stripes needed by many nodes are served
	// collectively, all others one-sidedly.
	ClassifierColumn
)

// Normalize fills defaulted fields and validates the result.
func (p Params) Normalize() (Params, error) {
	if p.P < 1 {
		return p, fmt.Errorf("core: Params.P must be >= 1, got %d", p.P)
	}
	if p.K < 1 {
		return p, fmt.Errorf("core: Params.K must be >= 1, got %d", p.K)
	}
	if p.W < 1 {
		return p, fmt.Errorf("core: Params.W must be >= 1, got %d", p.W)
	}
	if p.RowPanelHeight == 0 {
		p.RowPanelHeight = 32
	}
	if p.RowPanelHeight < 1 {
		return p, fmt.Errorf("core: Params.RowPanelHeight must be >= 1, got %d", p.RowPanelHeight)
	}
	if p.Coef == (model.Coefficients{}) {
		p.Coef = model.PaperDefaults()
	}
	if err := p.Coef.Validate(); err != nil {
		return p, err
	}
	if p.MemBudgetElems == 0 {
		p.MemBudgetElems = 48 << 20
	}
	if p.MemBudgetElems < int64(p.W)*int64(p.K) {
		return p, fmt.Errorf("core: memory budget %d below one dense stripe (%d elems)", p.MemBudgetElems, int64(p.W)*int64(p.K))
	}
	if p.ForceSplit != nil && (*p.ForceSplit < 0 || *p.ForceSplit > 1) {
		return p, fmt.Errorf("core: ForceSplit %v outside [0,1]", *p.ForceSplit)
	}
	if p.MaxCoalesceGap == 0 {
		p.MaxCoalesceGap = int32(127/p.K) + 1
	}
	if p.MaxCoalesceGap < 1 {
		return p, fmt.Errorf("core: MaxCoalesceGap must be >= 1, got %d", p.MaxCoalesceGap)
	}
	if p.MaxBatchBytes == 0 {
		p.MaxBatchBytes = 1 << 20
	}
	if p.MaxBatchBytes < 0 {
		return p, fmt.Errorf("core: MaxBatchBytes must be >= 0, got %d", p.MaxBatchBytes)
	}
	if p.RowCacheElems == 0 {
		p.RowCacheElems = 1 << 20
	}
	if p.ModelSyncThreads == 0 {
		p.ModelSyncThreads = 120
	}
	if p.ModelAsyncCompThreads == 0 {
		p.ModelAsyncCompThreads = 8
	}
	if p.ModelSyncThreads < 1 || p.ModelAsyncCompThreads < 1 {
		return p, fmt.Errorf("core: model thread counts must be >= 1 (%d, %d)", p.ModelSyncThreads, p.ModelAsyncCompThreads)
	}
	switch p.Classifier {
	case ClassifierModel, ClassifierColumn:
	default:
		return p, fmt.Errorf("core: unknown classifier %d", p.Classifier)
	}
	if p.ColumnSyncThreshold == 0 {
		p.ColumnSyncThreshold = p.P / 4
		if p.ColumnSyncThreshold < 2 {
			p.ColumnSyncThreshold = 2
		}
	}
	if p.ColumnSyncThreshold < 1 {
		return p, fmt.Errorf("core: ColumnSyncThreshold must be >= 1, got %d", p.ColumnSyncThreshold)
	}
	return p, nil
}

// CoefficientsFromNet derives preprocessing-model coefficients that describe
// a given machine the way the paper's regression calibration would see it:
// the synchronous terms absorb the effective multicast cost (a pipelined
// multi-destination broadcast moves ~2x the payload and ~2 latency stages
// past each participant — see cluster.NetModel.MulticastCost), and the async
// compute term folds in the async-compute thread count as the paper's
// gamma_A does. Getting the sync coefficients right is what lets the
// classifier actually equalize the two halves at runtime.
func CoefficientsFromNet(net cluster.NetModel, asyncCompThreads int) model.Coefficients {
	if asyncCompThreads < 1 {
		asyncCompThreads = 8
	}
	return model.Coefficients{
		BetaS:  2 * net.BetaS,
		AlphaS: 2 * net.AlphaS,
		BetaA:  net.BetaA,
		AlphaA: net.AlphaA,
		GammaA: net.GammaCore * net.AsyncPenalty / float64(asyncCompThreads),
		KappaA: net.KappaStripe,
	}
}
