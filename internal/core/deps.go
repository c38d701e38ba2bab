package core

import "sort"

// Panel→stripe dependency sets for the pipelined collective path. The
// synchronous executor no longer waits for every dense stripe before the
// first row panel runs (the seed's all-or-nothing syncReady barrier); a
// panel becomes runnable as soon as the specific stripes its columns
// reference have arrived. The dependency sets below are pure functions of
// the preprocessed plan and the layout, so they are computed once per
// NodePart and cached for every subsequent Exec on the same Prep.

// panelDeps holds, for every sync row panel of one node, the distinct
// remote dense stripes the panel's entries reference, in CSR form: panel i
// depends on sids[ptr[i]:ptr[i+1]]. Node-local columns never appear — they
// need no transfer.
//
// Because the sync thread receives stripes in np.RecvStripes order and its
// local comm clock only moves forward, stripe arrival times are monotone in
// that order. Each panel therefore blocks on a single gate: release[i] is
// the RecvStripes position of its latest-arriving dependency (-1 when the
// panel is purely node-local), and order lists the panels sorted by release
// so workers claim panels roughly in arrival order and idle as little as
// possible.
type panelDeps struct {
	ptr     []int32 // len NumPanels+1; bounds of each panel's run in sids
	sids    []int32 // concatenated dependency stripe ids
	release []int32 // per panel: max RecvStripes position over deps, -1 if none
	order   []int32 // panel indices sorted by (release, panel index)
}

// deps returns the node's cached dependency sets, building them on first
// use. Safe for concurrent Exec calls on one Prep.
func (np *NodePart) deps(layout *Layout) *panelDeps {
	np.depsOnce.Do(func() { np.depsCache = buildPanelDeps(layout, np) })
	return &np.depsCache
}

func buildPanelDeps(layout *Layout, np *NodePart) panelDeps {
	numPanels := np.Sync.NumPanels()
	d := panelDeps{
		ptr:     make([]int32, numPanels+1),
		release: make([]int32, numPanels),
	}

	// Position of each received stripe in np.RecvStripes; -1 for stripes
	// this node never receives (its own, or purely asynchronous ones).
	pos := make([]int32, layout.NumStripes())
	for i := range pos {
		pos[i] = -1
	}
	for i, sid := range np.RecvStripes {
		pos[sid] = int32(i)
	}

	stamp := make([]uint32, layout.NumStripes())
	var epoch uint32
	for p := 0; p < numPanels; p++ {
		epoch++
		rel := int32(-1)
		for _, e := range np.Sync.Entries[np.Sync.PanelPtr[p]:np.Sync.PanelPtr[p+1]] {
			sid := layout.StripeOfCol(e.Col)
			if pos[sid] < 0 {
				continue
			}
			if stamp[sid] == epoch {
				continue
			}
			stamp[sid] = epoch
			d.sids = append(d.sids, sid)
			if pos[sid] > rel {
				rel = pos[sid]
			}
		}
		d.ptr[p+1] = int32(len(d.sids))
		d.release[p] = rel
	}

	d.order = make([]int32, numPanels)
	for i := range d.order {
		d.order[i] = int32(i)
	}
	sort.SliceStable(d.order, func(a, b int) bool {
		return d.release[d.order[a]] < d.release[d.order[b]]
	})
	return d
}

// sharedRows reports, per node-local row, whether the row has a writer
// besides its one sync panel run: true for every row an async stripe
// touches. The rest are the rows processSyncRowPanel may sum into C without
// atomics. Like deps it is a pure function of the plan, built on first use
// and never serialized.
func (np *NodePart) sharedRows() []bool {
	np.sharedOnce.Do(func() { np.sharedCache = buildSharedRows(np) })
	return np.sharedCache
}

func buildSharedRows(np *NodePart) []bool {
	shared := make([]bool, np.RowHi-np.RowLo)
	for _, e := range np.Async.Entries {
		shared[e.Row] = true
	}
	// Preprocess puts each row in exactly one panel, but a plan read from a
	// file is outside input: a row split across panels has two panel workers
	// writing it, so it keeps the atomic path too.
	panelOf := make([]int32, len(shared)) // 1 + the panel that first held the row
	for p := 0; p < np.Sync.NumPanels(); p++ {
		for _, e := range np.Sync.Entries[np.Sync.PanelPtr[p]:np.Sync.PanelPtr[p+1]] {
			switch panelOf[e.Row] {
			case 0:
				panelOf[e.Row] = int32(p) + 1
			case int32(p) + 1:
			default:
				shared[e.Row] = true
			}
		}
	}
	return shared
}

// panelCols is the sync panel loop's column table, in CSR form per panel p:
//   - cols[colPtr[p]:colPtr[p+1]] are the panel's distinct columns in
//     first-appearance order;
//   - src[i] and off[i] say where column cols[i]'s dense row lies: row off[i]
//     of received stripe src[i], or of the node's own column block when
//     src[i] is -1;
//   - slots[j] is sync entry j's index into its panel's cols run;
//   - runs[runPtr[p]:runPtr[p+1]] are the entry indices where the panel's row
//     runs (maximal runs of consecutive entries on one row) start, followed
//     by the panel's end; an empty panel has none.
//
// The executor resolves each panel column to its dense row once per Exec, with
// two loads from the table, and hands every row run's slots to
// kernels.AxpyGather, so the per-nonzero work is the multiply-add alone. Like
// deps it is a pure function of the plan, built on first use and never
// serialized.
type panelCols struct {
	colPtr []int64
	cols   []int32
	src    []int32
	off    []int32
	slots  []int32
	runPtr []int64
	runs   []int64
}

// panelCols returns the node's cached column table, building it on first use.
// Only a run that computes calls it, so timing-only runs never pay for it.
// Safe for concurrent Exec calls on one Prep.
func (np *NodePart) panelCols(layout *Layout) *panelCols {
	np.colsOnce.Do(func() { np.colsCache = buildPanelCols(np, layout) })
	return &np.colsCache
}

func buildPanelCols(np *NodePart, layout *Layout) panelCols {
	s := &np.Sync
	own := layout.ColBlock(np.Rank)
	numPanels := s.NumPanels()
	t := panelCols{
		colPtr: make([]int64, numPanels+1),
		slots:  make([]int32, len(s.Entries)),
		runPtr: make([]int64, numPanels+1),
	}
	// pos[c] is column c's latest index in cols. Indices only grow, so c is
	// already listed for the current panel exactly when pos[c] >= base: the
	// position doubles as the epoch stamp and nothing is ever cleared.
	pos := make([]int64, layout.NumCols)
	for i := range pos {
		pos[i] = -1
	}
	for p := 0; p < numPanels; p++ {
		lo, hi := s.PanelPtr[p], s.PanelPtr[p+1]
		base := int64(len(t.cols))
		for j := lo; j < hi; j++ {
			e := s.Entries[j]
			if j == lo || e.Row != s.Entries[j-1].Row {
				t.runs = append(t.runs, j)
			}
			if pos[e.Col] < base {
				pos[e.Col] = int64(len(t.cols))
				t.cols = append(t.cols, e.Col)
				src, off := int32(-1), e.Col-int32(own.Lo)
				if !own.Contains(int(e.Col)) {
					src = layout.StripeOfCol(e.Col)
					lo, _ := layout.StripeCols(src)
					off = e.Col - lo
				}
				t.src = append(t.src, src)
				t.off = append(t.off, off)
			}
			t.slots[j] = int32(pos[e.Col] - base)
		}
		if hi > lo {
			t.runs = append(t.runs, hi)
		}
		t.colPtr[p+1] = int64(len(t.cols))
		t.runPtr[p+1] = int64(len(t.runs))
	}
	return t
}
