package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"twoface/internal/model"
	"twoface/internal/sparse"
)

// SyncMatrix is the synchronous/local-input sparse matrix of Figure 6b:
// the node's local-input and synchronous nonzeros in row-major order, cut
// into fixed-height row panels. Panel i's entries are
// Entries[PanelPtr[i]:PanelPtr[i+1]]; empty panels have equal pointers.
// Entry rows are node-local (0-based within the node's row block); columns
// are global.
type SyncMatrix struct {
	PanelPtr []int64
	Entries  []sparse.NZ
}

// NumPanels returns the number of row panels.
func (m *SyncMatrix) NumPanels() int { return len(m.PanelPtr) - 1 }

// AsyncMatrix is the asynchronous sparse matrix of Figure 6c: the node's
// asynchronous nonzeros, column-major within each stripe, stripes ordered by
// global stripe id. Stripe i covers Entries[StripePtr[i]:StripePtr[i+1]] and
// corresponds to dense stripe StripeIDs[i]. Entry rows are node-local;
// columns are global.
type AsyncMatrix struct {
	StripePtr []int64
	StripeIDs []int32
	Entries   []sparse.NZ
}

// NumStripes returns the number of asynchronous stripes.
func (m *AsyncMatrix) NumStripes() int { return len(m.StripeIDs) }

// NodePart is the preprocessed state one node holds at runtime.
type NodePart struct {
	Rank         int
	RowLo, RowHi int32 // this node's A/C row block

	Sync  SyncMatrix
	Async AsyncMatrix

	// RecvStripes lists the remote dense stripes this node receives through
	// collective multicasts, ascending by stripe id.
	RecvStripes []int32

	// Model features (paper section 4.2 / 6.2 notation).
	SS int64 // synchronous (remote) stripes
	SA int64 // asynchronous stripes
	LA int64 // dense B rows fetched one-sidedly
	NA int64 // nonzeros in asynchronous stripes

	LocalInputNNZ int64 // nonzeros whose B rows are node-local
	SyncNNZ       int64 // nonzeros in remote synchronous stripes

	memCapFlips int64 // stripes this node flipped async to fit memory

	// depsOnce/depsCache lazily hold the panel→stripe dependency sets the
	// pipelined executor blocks on (see deps.go). Derived from Sync and
	// RecvStripes, rebuilt per process, never serialized.
	depsOnce  sync.Once
	depsCache panelDeps

	// sharedOnce/sharedCache lazily hold which of the node's rows async
	// stripes also write (see sharedRows); same lifetime rules as deps.
	sharedOnce  sync.Once
	sharedCache []bool

	// colsOnce/colsCache lazily hold the sync panels' column table (see
	// panelCols); same lifetime rules as deps, but built only by a run that
	// computes.
	colsOnce  sync.Once
	colsCache panelCols
}

// Prep is the full output of Two-Face preprocessing: everything each node
// needs at runtime plus the replicated multicast metadata.
type Prep struct {
	Layout *Layout
	Params Params
	Nodes  []NodePart

	// Dests[sid] lists the ranks that receive dense stripe sid through a
	// collective multicast, ascending. Empty for stripes nobody needs
	// synchronously. This is the metadata the paper replicates across all
	// nodes (section 5.1).
	Dests [][]int32

	Stats PrepStats

	// needers[sid] counts the remote nodes with at least one nonzero in
	// dense stripe sid; filled only for the column classifier.
	needers []int32

	// Per-rank remote-row caches, created lazily by attachRowCaches and
	// keyed to one dense input at a time: cacheKey/cacheLen identify B's
	// backing array and cacheFP fingerprints its contents, so a different
	// (or mutated) B invalidates every cache in O(1).
	cacheMu   sync.Mutex
	rowCaches []*rowCache
	cacheKey  *float64
	cacheLen  int
	cacheFP   uint64
}

// PrepStats summarizes preprocessing for reporting (Table 6) and the
// experiment harness.
type PrepStats struct {
	TotalNNZ                 int64
	LocalInputNNZ            int64
	SyncNNZ                  int64
	AsyncNNZ                 int64
	SyncStripes              int64 // sum over nodes of SS
	AsyncStripes             int64 // sum over nodes of SA
	MemCapFlips              int64 // stripes forced async by the memory cap
	WallSeconds              float64
	ModeledPrepSeconds       float64 // modeled single-node preprocessing, no I/O
	ModeledPrepWithIOSeconds float64 // including Matrix Market read + binary write
	AvgMulticastFanout       float64 // mean |Dests| over communicated stripes
	MaxMulticastFanout       int
}

// Modeled preprocessing cost constants: the paper's preprocessing is a
// serial single-node pass dominated by sorting and matrix construction
// (section 7.3 calls its numbers "a pessimistic bound"). Costs are expressed
// per nonzero to mirror that accounting; the I/O terms model the textual
// Matrix Market read and bespoke-binary write of the paper's pipeline.
const (
	prepSortCostPerNNZCmp = 4.2e-10 // per nnz * log2(nnz) comparison
	prepBuildCostPerNNZ   = 1.0e-9  // bucketing, classification, panel build
	prepCostPerStripe     = 3.3e-8  // per (node, stripe) metadata record
	ioTextReadCostPerNNZ  = 3.3e-8  // Matrix Market text parse
	ioBinWriteCostPerNNZ  = 6.0e-9  // binary part write
)

// Preprocess partitions A for p nodes, classifies every sparse stripe, and
// builds the per-node modified-COO matrices and multicast metadata.
func Preprocess(a *sparse.COO, params Params) (*Prep, error) {
	start := time.Now()
	params, err := params.Normalize()
	if err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	layout, err := NewLayout(a.NumRows, a.NumCols, params.P, params.W)
	if err != nil {
		return nil, err
	}
	if params.BalanceRows {
		bounds, err := BalancedRowBounds(a, params.P)
		if err != nil {
			return nil, err
		}
		layout, err = layout.WithRowBounds(bounds)
		if err != nil {
			return nil, err
		}
	}

	// Bucket nonzeros by owning node (counting sort on row blocks).
	counts := make([]int64, params.P)
	owners := rowCursor{layout: layout}
	for _, e := range a.Entries {
		counts[owners.owner(e.Row)]++
	}
	buckets := make([][]sparse.NZ, params.P)
	for i := range buckets {
		buckets[i] = make([]sparse.NZ, 0, counts[i])
	}
	for _, e := range a.Entries {
		i := owners.owner(e.Row)
		buckets[i] = append(buckets[i], e)
	}

	prep := &Prep{
		Layout: layout,
		Params: params,
		Nodes:  make([]NodePart, params.P),
		Dests:  make([][]int32, layout.NumStripes()),
	}

	// The column classifier needs global stripe popularity before any
	// per-node decision (the model classifier is purely node-local).
	if params.Classifier == ClassifierColumn && params.ForceSplit == nil {
		prep.needers = countStripeNeeders(a, layout)
	}

	// Per-node preprocessing is independent; run the nodes concurrently.
	// (The paper's implementation is serial; the *modeled* preprocessing
	// time below stays serial to keep Table 6's pessimistic accounting.)
	var wg sync.WaitGroup
	errs := make([]error, params.P)
	for i := 0; i < params.P; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = prepNode(prep, rank, buckets[rank])
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	// Merge multicast destinations (replicated metadata). Ranks are visited
	// in order, so every list comes out ascending.
	for i := range prep.Nodes {
		for _, sid := range prep.Nodes[i].RecvStripes {
			prep.Dests[sid] = append(prep.Dests[sid], int32(i))
		}
	}

	prep.fillStats(start, int64(len(a.Entries)))
	return prep, nil
}

// rowCursor finds the owning node of a row, remembering the last row block
// it resolved: on row-sorted input (Dedup's order) that is one range check
// per entry instead of a search through the layout.
type rowCursor struct {
	layout *Layout
	node   int
	lo, hi int32 // rows of node's block; empty until the first lookup
}

func (c *rowCursor) owner(row int32) int {
	if row < c.lo || row >= c.hi {
		c.seek(row)
	}
	return c.node
}

func (c *rowCursor) seek(row int32) {
	c.node = c.layout.RowOwner(row)
	b := c.layout.RowBlock(c.node)
	c.lo, c.hi = int32(b.Lo), int32(b.Hi)
}

// stripeCursor finds the stripe of a column, remembering the column bounds
// of the last stripe it resolved, so a run of ascending columns costs one
// range check per entry.
type stripeCursor struct {
	layout *Layout
	sid    int32
	lo, hi int32 // columns of stripe sid; empty until the first lookup
}

func (c *stripeCursor) stripe(col int32) int32 {
	if col < c.lo || col >= c.hi {
		c.seek(col)
	}
	return c.sid
}

func (c *stripeCursor) seek(col int32) {
	c.sid = c.layout.StripeOfCol(col)
	c.lo, c.hi = c.layout.StripeCols(c.sid)
}

// prepNode builds one node's NodePart from its bucketed nonzeros, which it
// localizes and reorders in place.
func prepNode(prep *Prep, rank int, entries []sparse.NZ) error {
	layout, params := prep.Layout, prep.Params
	rowBlock := layout.RowBlock(rank)
	np := &prep.Nodes[rank]
	np.Rank = rank
	np.RowLo, np.RowHi = int32(rowBlock.Lo), int32(rowBlock.Hi)

	// Localize rows and sort column-major: stripe ids are monotone in the
	// column, so stripes become contiguous runs.
	for i := range entries {
		entries[i].Row -= np.RowLo
	}
	local := &sparse.COO{NumRows: int32(rowBlock.Len()), NumCols: layout.NumCols, Entries: entries}
	local.SortColMajor()

	// Scan stripe runs, each up to its stripe's last column.
	type stripeRun struct {
		sid      int32
		local    bool  // the stripe is this node's own (local input)
		lo, hi   int64 // entry range in `entries`
		rowsNeed int64 // distinct columns referenced
	}
	var runs []stripeRun
	var remote []stripeRun
	stripes := stripeCursor{layout: layout}
	for lo := int64(0); lo < int64(len(entries)); {
		sid := stripes.stripe(entries[lo].Col)
		hi := lo + 1
		uniq := int64(1)
		for hi < int64(len(entries)) && entries[hi].Col < stripes.hi {
			if entries[hi].Col != entries[hi-1].Col {
				uniq++
			}
			hi++
		}
		r := stripeRun{sid: sid, local: layout.StripeOwner(sid) == rank, lo: lo, hi: hi, rowsNeed: uniq}
		runs = append(runs, r)
		if !r.local {
			remote = append(remote, r)
		}
		lo = hi
	}

	// Classify the remote stripes.
	infos := make([]model.StripeInfo, len(remote))
	for i, r := range remote {
		infos[i] = model.StripeInfo{NNZ: r.hi - r.lo, RowsNeeded: r.rowsNeed}
	}

	var decision model.Decision
	switch {
	case params.ForceSplit != nil:
		decision = forceSplit(infos, params, *params.ForceSplit)
	case params.Classifier == ClassifierColumn:
		sids := make([]int32, len(remote))
		for i, r := range remote {
			sids[i] = r.sid
		}
		decision = columnClassify(sids, prep.needers, params)
	default:
		// The async scheduler amortizes the per-request AlphaA over each
		// owner-batch, so the classifier sees the batched per-stripe cost;
		// with a batch estimate of 1 (MaxBatchBytes too small to pair two
		// stripes) this is the paper's per-stripe Classify exactly.
		decision = model.ClassifyBatched(infos, params.W, params.K, params.Coef,
			asyncBatchEstimate(infos, params))
	}
	flips := model.ApplyMemoryCap(&decision, infos, params.W, params.K, params.Coef, params.MemBudgetElems)
	np.memCapFlips = int64(flips)

	// Assemble the asynchronous matrix: async stripes ascending by sid,
	// entries already column-major within each run.
	for i, r := range remote {
		if !decision.Async[i] {
			continue
		}
		np.Async.StripePtr = append(np.Async.StripePtr, int64(len(np.Async.Entries)))
		np.Async.StripeIDs = append(np.Async.StripeIDs, r.sid)
		np.Async.Entries = append(np.Async.Entries, entries[r.lo:r.hi]...)
		np.SA++
		np.LA += r.rowsNeed
		np.NA += r.hi - r.lo
	}
	np.Async.StripePtr = append(np.Async.StripePtr, int64(len(np.Async.Entries)))

	// Assemble the synchronous/local-input matrix: gather the local-input
	// and synchronous runs in stripe order (so RecvStripes comes out
	// ascending), then sort row-major and panel it.
	syncEntries := make([]sparse.NZ, 0, int64(len(entries))-np.NA)
	ri := 0
	for _, r := range runs {
		if !r.local {
			async := decision.Async[ri]
			ri++
			if async {
				continue
			}
			np.RecvStripes = append(np.RecvStripes, r.sid)
			np.SS++
			np.SyncNNZ += r.hi - r.lo
		} else {
			np.LocalInputNNZ += r.hi - r.lo
		}
		syncEntries = append(syncEntries, entries[r.lo:r.hi]...)
	}
	syncMat := &sparse.COO{NumRows: local.NumRows, NumCols: local.NumCols, Entries: syncEntries}
	syncMat.SortRowMajor()
	np.Sync.Entries = syncEntries

	h := params.RowPanelHeight
	numPanels := (int32(rowBlock.Len()) + h - 1) / h
	if numPanels == 0 {
		numPanels = 1
	}
	np.Sync.PanelPtr = make([]int64, numPanels+1)
	for _, e := range syncEntries {
		np.Sync.PanelPtr[e.Row/h+1]++
	}
	for i := int32(1); i <= numPanels; i++ {
		np.Sync.PanelPtr[i] += np.Sync.PanelPtr[i-1]
	}
	if np.Sync.PanelPtr[numPanels] != int64(len(syncEntries)) {
		return fmt.Errorf("core: rank %d: panel pointers inconsistent", rank)
	}
	reorderPanelRows(layout, np.Sync.Entries, np.Sync.PanelPtr)
	return nil
}

// reorderPanelRows groups each synchronous panel's rows by the set of dense
// stripes their columns touch, hashed to a 64-bit signature (bit = stripe id
// mod 64), so the panel kernel visits rows with shared column blocks back to
// back and reuses cache-hot B rows across the register-tiled passes. Whole
// row runs move as units — every row's nonzeros stay contiguous and
// column-sorted, and no entry changes panels — so each row's partial-sum
// order, and therefore C, is bit-identical to the unreordered layout.
// Ties sort by row, keeping the pass deterministic.
func reorderPanelRows(layout *Layout, entries []sparse.NZ, panelPtr []int64) {
	type rowRun struct {
		sig    uint64
		row    int32
		lo, hi int32
	}
	var runs []rowRun
	var scratch []sparse.NZ
	stripes := stripeCursor{layout: layout}
	for p := 0; p+1 < len(panelPtr); p++ {
		seg := entries[panelPtr[p]:panelPtr[p+1]]
		runs = runs[:0]
		for lo := 0; lo < len(seg); {
			row := seg[lo].Row
			sig := uint64(1) << (uint(stripes.stripe(seg[lo].Col)) % 64)
			hi := lo + 1
			for hi < len(seg) && seg[hi].Row == row {
				sig |= uint64(1) << (uint(stripes.stripe(seg[hi].Col)) % 64)
				hi++
			}
			runs = append(runs, rowRun{sig: sig, row: row, lo: int32(lo), hi: int32(hi)})
			lo = hi
		}
		if len(runs) < 2 {
			continue
		}
		slices.SortFunc(runs, func(a, b rowRun) int {
			if a.sig != b.sig {
				return cmp.Compare(a.sig, b.sig)
			}
			return cmp.Compare(a.row, b.row)
		})
		scratch = append(scratch[:0], seg...)
		out := seg[:0]
		for _, r := range runs {
			out = append(out, scratch[r.lo:r.hi]...)
		}
	}
}

// forceSplit classifies a fixed fraction of the remote stripes as
// asynchronous, cheapest z first (used by Async Fine-Grained and the
// calibration sweeps).
func forceSplit(infos []model.StripeInfo, params Params, frac float64) model.Decision {
	d := model.Decision{Async: make([]bool, len(infos))}
	order := make([]int, len(infos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return params.Coef.ZScore(infos[order[a]], params.W, params.K) <
			params.Coef.ZScore(infos[order[b]], params.W, params.K)
	})
	take := int(math.Ceil(frac * float64(len(infos))))
	for _, idx := range order[:take] {
		d.Async[idx] = true
		d.NumAsync++
	}
	d.NumSync = len(infos) - d.NumAsync
	return d
}

func (p *Prep) fillStats(start time.Time, totalNNZ int64) {
	s := &p.Stats
	s.TotalNNZ = totalNNZ
	for i := range p.Nodes {
		np := &p.Nodes[i]
		s.LocalInputNNZ += np.LocalInputNNZ
		s.SyncNNZ += np.SyncNNZ
		s.AsyncNNZ += np.NA
		s.SyncStripes += np.SS
		s.AsyncStripes += np.SA
		s.MemCapFlips += np.memCapFlips
	}
	var fanSum, fanCnt int64
	for _, d := range p.Dests {
		if len(d) == 0 {
			continue
		}
		fanSum += int64(len(d))
		fanCnt++
		if len(d) > s.MaxMulticastFanout {
			s.MaxMulticastFanout = len(d)
		}
	}
	if fanCnt > 0 {
		s.AvgMulticastFanout = float64(fanSum) / float64(fanCnt)
	}

	nnz := float64(totalNNZ)
	logN := 1.0
	if totalNNZ > 2 {
		logN = math.Log2(nnz)
	}
	stripes := float64(s.SyncStripes + s.AsyncStripes)
	s.ModeledPrepSeconds = prepSortCostPerNNZCmp*nnz*logN + prepBuildCostPerNNZ*nnz + prepCostPerStripe*stripes
	s.ModeledPrepWithIOSeconds = s.ModeledPrepSeconds + (ioTextReadCostPerNNZ+ioBinWriteCostPerNNZ)*nnz
	s.WallSeconds = time.Since(start).Seconds()
}

// countStripeNeeders returns, per dense stripe, the number of remote nodes
// with at least one nonzero in it — the popularity signal of the column
// classifier.
func countStripeNeeders(a *sparse.COO, layout *Layout) []int32 {
	p := layout.P
	needers := make([]int32, layout.NumStripes())
	seen := make([]bool, int(layout.NumStripes())*p)
	for _, e := range a.Entries {
		node := layout.RowOwner(e.Row)
		sid := layout.StripeOfCol(e.Col)
		if layout.StripeOwner(sid) == node {
			continue // local-input: no transfer either way
		}
		idx := int(sid)*p + node
		if !seen[idx] {
			seen[idx] = true
			needers[sid]++
		}
	}
	return needers
}

// columnClassify implements the paper's future-work alternative: a stripe is
// synchronous iff its dense stripe is needed by at least threshold nodes
// (popular data rides multicasts; niche data is fetched one-sidedly).
func columnClassify(sids []int32, needers []int32, params Params) model.Decision {
	d := model.Decision{Async: make([]bool, len(sids))}
	for i, sid := range sids {
		if int(needers[sid]) < params.ColumnSyncThreshold {
			d.Async[i] = true
			d.NumAsync++
		}
	}
	d.NumSync = len(sids) - d.NumAsync
	return d
}
