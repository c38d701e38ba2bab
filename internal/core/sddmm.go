package core

import (
	"fmt"
	"time"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/sparse"
)

// Distributed SDDMM (paper section 9: "With simple modifications, the
// Two-Face algorithm should also be applicable to ... SDDMM, which exhibits
// very similar patterns to SpMM"). The kernel computes
// C_ij = A_ij * dot(X[i,:], Y[j,:]) over A's nonzeros. Under 1D
// partitioning, X rows are node-local (indexed by A rows, like C in SpMM)
// and Y rows follow A's column structure (indexed like B in SpMM), so the
// communication problem — which Y rows to move, collectively or one-sidedly
// — is *identical* to SpMM's: SDDMM runs the SpMM executor over the same
// plan with Y in B's role, and only the per-unit arithmetic (sddmmKernel)
// differs.

// SDDMMResult is the outcome of one distributed SDDMM.
type SDDMMResult struct {
	// C holds A's sparsity structure with sampled values, sorted row-major.
	C *sparse.COO
	// Breakdowns and ModeledSeconds mirror core.Result.
	Breakdowns     []cluster.Breakdown
	ModeledSeconds float64
	Wall           time.Duration
	// Transfer and TotalTransfer mirror core.Result's per-rank counters.
	Transfer      []cluster.TransferStats
	TotalTransfer cluster.TransferStats
}

// ExecSDDMM runs distributed SDDMM using an SpMM preprocessing plan. X must
// be NumRows x K, Y must be NumCols x K with K = prep.Params.K. Sampling
// options apply to SpMM only and are ignored. On a multi-process transport C
// holds only the local ranks' entries.
func ExecSDDMM(prep *Prep, x, y *dense.Matrix, clu *cluster.Cluster, opts ExecOptions) (*SDDMMResult, error) {
	params := prep.Params
	if x.Rows != int(prep.Layout.NumRows) || x.Cols != params.K {
		return nil, fmt.Errorf("core: X is %dx%d, want %dx%d", x.Rows, x.Cols, prep.Layout.NumRows, params.K)
	}
	if y.Rows != int(prep.Layout.NumCols) || y.Cols != params.K {
		return nil, fmt.Errorf("core: Y is %dx%d, want %dx%d", y.Rows, y.Cols, prep.Layout.NumCols, params.K)
	}
	opts.SampleKeep = 0
	kn := sddmmKernel{x: x, base: make([]int, len(prep.Nodes)+1)}
	for i := range prep.Nodes {
		kn.base[i+1] = kn.base[i] + len(prep.Nodes[i].Sync.Entries) + len(prep.Nodes[i].Async.Entries)
	}
	var vals []float64
	if !opts.SkipCompute {
		vals = make([]float64, kn.base[len(prep.Nodes)])
	}
	res, err := runUnits(prep, y, clu, opts, vals, kn)
	if err != nil {
		return nil, err
	}

	c := &sparse.COO{NumRows: prep.Layout.NumRows, NumCols: prep.Layout.NumCols}
	if vals != nil {
		for _, rank := range clu.Transport().LocalRanks() {
			np := &prep.Nodes[rank]
			i := kn.base[rank]
			for _, es := range [2][]sparse.NZ{np.Sync.Entries, np.Async.Entries} {
				for _, e := range es {
					c.Entries = append(c.Entries, sparse.NZ{Row: np.RowLo + e.Row, Col: e.Col, Val: vals[i]})
					i++
				}
			}
		}
		c.SortRowMajor()
	}
	return &SDDMMResult{
		C:              c,
		Breakdowns:     res.Breakdowns,
		ModeledSeconds: res.ModeledSeconds,
		Wall:           res.Wall,
		Transfer:       res.Transfer,
		TotalTransfer:  res.TotalTransfer,
	}, nil
}

// sddmmKernel writes e.Val·dot(X row, Y row) for each entry e. Its output is
// flat, one value per plan entry: rank q's range starts at base[q] and holds
// its sync entries, then its async entries, so every panel and every stripe
// writes one contiguous range that no other unit touches. It ignores
// sampling.
type sddmmKernel struct {
	x    *dense.Matrix
	base []int // len P+1
}

func (kn sddmmKernel) panel(layout *Layout, np *NodePart, out accumSink, src rowSources, ws *panelScratch, n, k int, _ sampling) error {
	t := np.panelCols(layout)
	if err := ws.resolveCols(t, n, src, k); err != nil {
		return err
	}
	lo, hi := int(np.Sync.PanelPtr[n]), int(np.Sync.PanelPtr[n+1])
	off := kn.base[np.Rank] + lo
	dst := sddmmDst(out, off, hi-lo, &ws.vals)
	for j, e := range np.Sync.Entries[lo:hi] {
		dst[j] = e.Val * sparse.Dot(kn.x.Row(int(np.RowLo+e.Row)), ws.rows[t.slots[lo+j]])
	}
	if out.plain() == nil {
		out.AddRange(off, dst)
	}
	return nil
}

func (kn sddmmKernel) stripe(np *NodePart, si int, cols, rowRef []int32, out accumSink, ws *asyncScratch, k int, _ sampling) {
	lo, hi := int(np.Async.StripePtr[si]), int(np.Async.StripePtr[si+1])
	off := kn.base[np.Rank] + len(np.Sync.Entries) + lo
	dst := sddmmDst(out, off, hi-lo, &ws.vals)
	ci := 0
	for j, e := range np.Async.Entries[lo:hi] {
		for cols[ci] != e.Col {
			ci++
		}
		dst[j] = e.Val * sparse.Dot(kn.x.Row(int(np.RowLo+e.Row)), ws.row(rowRef[ci], k))
	}
	if out.plain() == nil {
		out.AddRange(off, dst)
	}
}

// sddmmDst returns where a unit's n values at output offset off go: straight
// into C when out allows plain writes (the range has one writer), else into
// scratch for the caller to hand to out.AddRange. A staged value is added
// onto C's +0 at its flush, so a -0 product comes back as +0.
func sddmmDst(out accumSink, off, n int, scratch *[]float64) []float64 {
	if c := out.plain(); c != nil {
		return c[off : off+n]
	}
	if cap(*scratch) < n {
		*scratch = make([]float64, n)
	}
	return (*scratch)[:n]
}
