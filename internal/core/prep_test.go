package core

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/gen"
	"twoface/internal/kernels"
	"twoface/internal/sparse"
)

func randomCOO(rows, cols int32, nnz int, seed uint64) *sparse.COO {
	rng := rand.New(rand.NewPCG(seed, seed^77))
	m := sparse.NewCOO(rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(rng.Int32N(rows), rng.Int32N(cols), rng.Float64()*2-1)
	}
	m.Dedup()
	return m
}

func basicParams(p, k int, w int32) Params {
	return Params{P: p, K: k, W: w}
}

func TestParamsNormalizeDefaults(t *testing.T) {
	p, err := basicParams(4, 128, 64).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.RowPanelHeight != 32 {
		t.Fatalf("RowPanelHeight default = %d", p.RowPanelHeight)
	}
	if p.MaxCoalesceGap != 127/128+1 {
		t.Fatalf("MaxCoalesceGap default = %d", p.MaxCoalesceGap)
	}
	if p.ModelSyncThreads != 120 || p.ModelAsyncCompThreads != 8 {
		t.Fatalf("model threads = %d/%d", p.ModelSyncThreads, p.ModelAsyncCompThreads)
	}
	if p.MemBudgetElems != 48<<20 {
		t.Fatalf("MemBudgetElems default = %d", p.MemBudgetElems)
	}
	// K=32 gives a wider coalescing gap.
	p2, _ := basicParams(4, 32, 64).Normalize()
	if p2.MaxCoalesceGap != 4 {
		t.Fatalf("K=32 MaxCoalesceGap = %d, want 4", p2.MaxCoalesceGap)
	}
}

func TestParamsNormalizeErrors(t *testing.T) {
	bad := []Params{
		{P: 0, K: 1, W: 1},
		{P: 1, K: 0, W: 1},
		{P: 1, K: 1, W: 0},
		{P: 1, K: 1, W: 1, RowPanelHeight: -1},
		{P: 1, K: 1, W: 1024, MemBudgetElems: 10},
		{P: 1, K: 1, W: 1, ModelSyncThreads: -2},
	}
	for i, b := range bad {
		if _, err := b.Normalize(); err == nil {
			t.Fatalf("case %d should fail: %+v", i, b)
		}
	}
	f := 1.5
	if _, err := (Params{P: 1, K: 1, W: 1, ForceSplit: &f}).Normalize(); err == nil {
		t.Fatal("ForceSplit > 1 should fail")
	}
}

func TestPreprocessConservesNonzeros(t *testing.T) {
	f := func(seed uint64) bool {
		a := randomCOO(200, 200, 2000, seed)
		prep, err := Preprocess(a, basicParams(4, 16, 8))
		if err != nil {
			return false
		}
		var total int64
		for i := range prep.Nodes {
			np := &prep.Nodes[i]
			total += int64(len(np.Sync.Entries)) + int64(len(np.Async.Entries))
		}
		if total != int64(a.NNZ()) {
			return false
		}
		s := prep.Stats
		return s.LocalInputNNZ+s.SyncNNZ+s.AsyncNNZ == int64(a.NNZ())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPreprocessRowOwnership(t *testing.T) {
	a := randomCOO(100, 100, 800, 5)
	prep, err := Preprocess(a, basicParams(4, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range prep.Nodes {
		np := &prep.Nodes[i]
		localRows := np.RowHi - np.RowLo
		for _, e := range np.Sync.Entries {
			if e.Row < 0 || e.Row >= localRows {
				t.Fatalf("rank %d: sync entry row %d outside [0,%d)", i, e.Row, localRows)
			}
		}
		for _, e := range np.Async.Entries {
			if e.Row < 0 || e.Row >= localRows {
				t.Fatalf("rank %d: async entry row %d outside [0,%d)", i, e.Row, localRows)
			}
		}
	}
}

// Panels must keep every row's nonzeros contiguous and column-sorted — the
// invariant the panel kernel's per-row flush depends on — even though the
// default row reordering may visit rows out of ascending order.
func TestPreprocessSyncMatrixPanelRowRuns(t *testing.T) {
	a := randomCOO(128, 128, 1500, 6)
	prep, err := Preprocess(a, basicParams(4, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range prep.Nodes {
		np := &prep.Nodes[i]
		h := prep.Params.RowPanelHeight
		for p := 0; p < np.Sync.NumPanels(); p++ {
			panel := np.Sync.Entries[np.Sync.PanelPtr[p]:np.Sync.PanelPtr[p+1]]
			seen := map[int32]bool{}
			for j, e := range panel {
				if e.Row/h != int32(p) {
					t.Fatalf("rank %d: entry row %d in panel %d (height %d)", i, e.Row, p, h)
				}
				if j == 0 || panel[j-1].Row != e.Row {
					if seen[e.Row] {
						t.Fatalf("rank %d panel %d: row %d split into separate runs", i, p, e.Row)
					}
					seen[e.Row] = true
				} else if panel[j-1].Col >= e.Col {
					t.Fatalf("rank %d panel %d: row %d columns not ascending", i, p, e.Row)
				}
			}
		}
	}
}

// What summing a sync row straight into C relies on, over every registry
// archetype, as shipped (rows reordered within panels), on the row-major twin
// and with load-balanced row bounds: each node-local row's sync nonzeros sit in exactly one panel as one
// contiguous run (one writer, one pass), and the rows marked shared are
// exactly the rows async stripes touch.
func TestSingleWriterRowInvariantOnRegistry(t *testing.T) {
	for _, spec := range gen.Specs() {
		const scale = 0.004
		a := spec.Build(scale, 7)
		for _, cfg := range []struct {
			name            string
			rowMajor, level bool
		}{{"reordered", false, false}, {"rowmajor", true, false}, {"balanced", false, true}} {
			params := Params{P: 4, K: 8, W: spec.ScaledWidth(scale), BalanceRows: cfg.level}
			prep, err := Preprocess(a, params)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.rowMajor {
				sortPanelsRowMajor(prep)
			}
			for i := range prep.Nodes {
				np := &prep.Nodes[i]
				rows := int(np.RowHi - np.RowLo)
				runs := make([]int, rows)
				for p := 0; p < np.Sync.NumPanels(); p++ {
					panel := np.Sync.Entries[np.Sync.PanelPtr[p]:np.Sync.PanelPtr[p+1]]
					for j, e := range panel {
						if j == 0 || panel[j-1].Row != e.Row {
							runs[e.Row]++
						}
					}
				}
				async := make([]bool, rows)
				for _, e := range np.Async.Entries {
					async[e.Row] = true
				}
				shared := np.sharedRows()
				if len(shared) != rows {
					t.Fatalf("%s/%s rank %d: %d shared marks for %d rows", spec.Short, cfg.name, i, len(shared), rows)
				}
				for row := range runs {
					if runs[row] > 1 {
						t.Fatalf("%s/%s rank %d: row %d is written by %d sync row runs", spec.Short, cfg.name, i, row, runs[row])
					}
					if shared[row] != async[row] {
						t.Fatalf("%s/%s rank %d: row %d shared=%v, async stripes touch it=%v", spec.Short, cfg.name, i, row, shared[row], async[row])
					}
				}
			}
		}
	}
}

// A plan file is outside input: a row its sync matrix splits across two
// panels has two panel workers writing it, so it must keep the atomic path
// even though no async stripe touches it.
func TestSharedRowsMarksRowSplitAcrossPanels(t *testing.T) {
	np := &NodePart{RowLo: 0, RowHi: 4}
	np.Sync.Entries = []sparse.NZ{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 0, Val: 1}}
	np.Sync.PanelPtr = []int64{0, 2, 4}
	np.Async.Entries = []sparse.NZ{{Row: 3, Col: 9, Val: 1}}
	want := []bool{false, true, false, true}
	for row, got := range np.sharedRows() {
		if got != want[row] {
			t.Fatalf("row %d shared=%v, want %v", row, got, want[row])
		}
	}
}

// sortPanelsRowMajor undoes reorderPanelRows on a freshly preprocessed plan:
// every sync panel back in (row, col) order, the layout the seed produced and
// the twin the reordered layout is compared against. Call it before anything
// derives cached state (deps, sharedRows) from the plan.
func sortPanelsRowMajor(prep *Prep) {
	for i := range prep.Nodes {
		sm := &prep.Nodes[i].Sync
		for p := 0; p < sm.NumPanels(); p++ {
			panel := sm.Entries[sm.PanelPtr[p]:sm.PanelPtr[p+1]]
			sort.Slice(panel, func(x, y int) bool {
				if panel[x].Row != panel[y].Row {
					return panel[x].Row < panel[y].Row
				}
				return panel[x].Col < panel[y].Col
			})
		}
	}
}

// The reorder must not change any row's accumulated panel contribution:
// whole row runs move as units, so the per-row sums — computed here with the
// shipped pending-pair kernel sequence — must be bit-identical between the
// reordered and row-major preps. Full-run C equality only holds up to the
// reassociation that concurrent sync/async flushing into a shared C row
// already introduces between two healthy runs, so the executor A/B at the
// end uses a relative tolerance instead of ==.
func TestRowReorderBitExact(t *testing.T) {
	a := randomCOO(160, 160, 2200, 11)
	b := dense.Random(160, 8, 12)
	params := basicParams(4, 8, 8)
	on, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	sortPanelsRowMajor(off)
	reordered := false
	for i := range on.Nodes {
		for j, e := range on.Nodes[i].Sync.Entries {
			if e != off.Nodes[i].Sync.Entries[j] {
				reordered = true
			}
		}
	}
	if !reordered {
		t.Log("warning: reorder left every panel unchanged on this input")
	}

	// Sequential, deterministic replay of the panel compute: one accumulator
	// per row, consecutive same-row nonzeros paired through Axpy2, exactly
	// like processSyncRowPanel.
	rowSums := func(prep *Prep) map[int64][]float64 {
		sums := make(map[int64][]float64)
		for i := range prep.Nodes {
			np := &prep.Nodes[i]
			for p := 0; p < np.Sync.NumPanels(); p++ {
				panel := np.Sync.Entries[np.Sync.PanelPtr[p]:np.Sync.PanelPtr[p+1]]
				if len(panel) == 0 {
					continue
				}
				acc := make([]float64, b.Cols)
				prevRow := panel[0].Row
				var pendVal float64
				var pendRow []float64
				flush := func(row int32) {
					if pendRow != nil {
						kernels.Axpy(pendVal, pendRow, acc)
						pendRow = nil
					}
					sums[int64(i)<<32|int64(row)] = acc
					acc = make([]float64, b.Cols)
				}
				for _, e := range panel {
					if e.Row != prevRow {
						flush(prevRow)
						prevRow = e.Row
					}
					if pendRow == nil {
						pendVal, pendRow = e.Val, b.Row(int(e.Col))
						continue
					}
					kernels.Axpy2(pendVal, pendRow, e.Val, b.Row(int(e.Col)), acc)
					pendRow = nil
				}
				flush(prevRow)
			}
		}
		return sums
	}
	so, sf := rowSums(on), rowSums(off)
	if len(so) != len(sf) {
		t.Fatalf("row count changed: %d reordered vs %d row-major", len(so), len(sf))
	}
	for key, vo := range so {
		vf, ok := sf[key]
		if !ok {
			t.Fatalf("node %d row %d only present reordered", key>>32, int32(key))
		}
		for j := range vo {
			if vo[j] != vf[j] {
				t.Fatalf("node %d row %d col %d: %v (reordered) != %v (row-major)",
					key>>32, int32(key), j, vo[j], vf[j])
			}
		}
	}

	cluOn, err := cluster.New(params.P, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := Exec(on, b, cluOn, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cluOff, err := cluster.New(params.P, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := Exec(off, b, cluOff, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range resOn.C.Data {
		w := resOff.C.Data[i]
		if diff := math.Abs(v - w); diff > 1e-12*(math.Abs(v)+math.Abs(w)+1) {
			t.Fatalf("C[%d]: %v (reordered) vs %v (row-major) beyond tolerance", i, v, w)
		}
	}
}

func TestPreprocessAsyncMatrixColMajorWithinStripes(t *testing.T) {
	a := randomCOO(128, 128, 1500, 7)
	forceAll := 1.0
	params := basicParams(4, 8, 8)
	params.ForceSplit = &forceAll
	prep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	anyAsync := false
	for i := range prep.Nodes {
		np := &prep.Nodes[i]
		prevSid := int32(-1)
		for s := 0; s < np.Async.NumStripes(); s++ {
			sid := np.Async.StripeIDs[s]
			if sid <= prevSid {
				t.Fatalf("rank %d: async stripes not ascending", i)
			}
			prevSid = sid
			entries := np.Async.Entries[np.Async.StripePtr[s]:np.Async.StripePtr[s+1]]
			if len(entries) == 0 {
				t.Fatalf("rank %d: empty async stripe %d stored", i, sid)
			}
			anyAsync = true
			for j, e := range entries {
				if prep.Layout.StripeOfCol(e.Col) != sid {
					t.Fatalf("rank %d: entry col %d not in stripe %d", i, e.Col, sid)
				}
				if j > 0 {
					prev := entries[j-1]
					if prev.Col > e.Col || (prev.Col == e.Col && prev.Row > e.Row) {
						t.Fatalf("rank %d stripe %d: not column-major", i, sid)
					}
				}
			}
		}
		if np.SS != 0 {
			t.Fatalf("rank %d: ForceSplit=1 left %d sync stripes", i, np.SS)
		}
	}
	if !anyAsync {
		t.Fatal("expected asynchronous stripes")
	}
}

func TestPreprocessLocalInputNeverRemote(t *testing.T) {
	// Entries in a node's own column block must never appear in the async
	// matrix or the sync receive list.
	a := randomCOO(120, 120, 1000, 8)
	prep, err := Preprocess(a, basicParams(3, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range prep.Nodes {
		np := &prep.Nodes[i]
		own := prep.Layout.ColBlock(i)
		for _, e := range np.Async.Entries {
			if own.Contains(int(e.Col)) {
				t.Fatalf("rank %d: local column %d in async matrix", i, e.Col)
			}
		}
		for _, sid := range np.RecvStripes {
			if prep.Layout.StripeOwner(sid) == i {
				t.Fatalf("rank %d: receives own stripe %d", i, sid)
			}
		}
	}
}

func TestPreprocessDestsMatchRecvStripes(t *testing.T) {
	a := randomCOO(150, 150, 2000, 9)
	prep, err := Preprocess(a, basicParams(5, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Dests[sid] contains exactly the ranks listing sid in RecvStripes.
	want := map[int32]map[int32]bool{}
	for i := range prep.Nodes {
		for _, sid := range prep.Nodes[i].RecvStripes {
			if want[sid] == nil {
				want[sid] = map[int32]bool{}
			}
			want[sid][int32(i)] = true
		}
	}
	for sid, dests := range prep.Dests {
		if len(dests) != len(want[int32(sid)]) {
			t.Fatalf("stripe %d: %d dests, want %d", sid, len(dests), len(want[int32(sid)]))
		}
		for j, d := range dests {
			if !want[int32(sid)][d] {
				t.Fatalf("stripe %d: unexpected dest %d", sid, d)
			}
			if j > 0 && dests[j-1] >= d {
				t.Fatalf("stripe %d: dests not sorted", sid)
			}
		}
	}
}

func TestPreprocessModelFeaturesConsistent(t *testing.T) {
	a := randomCOO(200, 200, 3000, 10)
	prep, err := Preprocess(a, basicParams(4, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range prep.Nodes {
		np := &prep.Nodes[i]
		if np.SA != int64(np.Async.NumStripes()) {
			t.Fatalf("rank %d: SA=%d but %d async stripes", i, np.SA, np.Async.NumStripes())
		}
		if np.SS != int64(len(np.RecvStripes)) {
			t.Fatalf("rank %d: SS=%d but %d recv stripes", i, np.SS, len(np.RecvStripes))
		}
		if np.NA != int64(len(np.Async.Entries)) {
			t.Fatalf("rank %d: NA=%d but %d async entries", i, np.NA, len(np.Async.Entries))
		}
		// LA = sum of distinct columns per async stripe.
		var la int64
		for s := 0; s < np.Async.NumStripes(); s++ {
			entries := np.Async.Entries[np.Async.StripePtr[s]:np.Async.StripePtr[s+1]]
			la += int64(len(uniqueCols(entries)))
		}
		if la != np.LA {
			t.Fatalf("rank %d: LA=%d, recomputed %d", i, np.LA, la)
		}
	}
}

func TestPreprocessMemoryCap(t *testing.T) {
	// A dense-ish matrix with a tiny budget must flip stripes async.
	a := randomCOO(64, 64, 3000, 11)
	params := basicParams(4, 64, 8)
	params.MemBudgetElems = 2 * int64(params.W) * int64(params.K) // room for 2 stripes
	prep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prep.Nodes {
		if got := int64(len(prep.Nodes[i].RecvStripes)) * int64(params.W) * int64(params.K); got > params.MemBudgetElems {
			t.Fatalf("rank %d: receive buffers (%d elems) exceed budget (%d)", i, got, params.MemBudgetElems)
		}
	}
}

func TestPreprocessInvalidMatrix(t *testing.T) {
	a := sparse.NewCOO(10, 10, 1)
	a.Append(20, 0, 1)
	if _, err := Preprocess(a, basicParams(2, 4, 4)); err == nil {
		t.Fatal("invalid matrix should fail preprocessing")
	}
}

func TestPreprocessStatsFanout(t *testing.T) {
	a := randomCOO(100, 100, 3000, 12)
	prep, err := Preprocess(a, basicParams(4, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	s := prep.Stats
	if s.TotalNNZ != int64(a.NNZ()) {
		t.Fatalf("TotalNNZ = %d", s.TotalNNZ)
	}
	if s.SyncStripes > 0 && (s.AvgMulticastFanout < 1 || s.MaxMulticastFanout < 1) {
		t.Fatalf("fanout stats inconsistent: %+v", s)
	}
	if s.ModeledPrepSeconds <= 0 || s.ModeledPrepWithIOSeconds <= s.ModeledPrepSeconds {
		t.Fatalf("modeled prep costs inconsistent: %+v", s)
	}
}
