// Package core implements Two-Face, the paper's distributed SpMM algorithm:
// the megatile/stripe partitioner, the preprocessing step that classifies
// sparse stripes as synchronous or asynchronous with the cost model of
// package model, the modified-COO storage of Figure 6, and the runtime of
// Algorithms 1-3 executed on the simulated cluster.
package core

import (
	"fmt"
	"math"

	"twoface/internal/dense"
)

// Layout captures the 1D partition geometry of one SpMM instance
// (paper sections 2.2 and 4.1):
//
//   - Node i owns the consecutive A-row block (and C-row block)
//     [i*N/p, (i+1)*N/p), and the B-row block [i*M/p, (i+1)*M/p).
//   - A is logically divided into p x p megatiles; the megatile column of
//     node j spans j's B-row block.
//   - Each megatile column is cut into sparse stripes of width W columns
//     (the last stripe of a megatile may be narrower). Stripes are numbered
//     globally, megatile-major: all stripes of node 0's columns first.
//   - Dense stripe s is the W-row slice of B that sparse stripes in column
//     range s access.
type Layout struct {
	NumRows int32 // N: rows of A and C
	NumCols int32 // M: columns of A, rows of B
	P       int   // nodes
	W       int32 // stripe width

	stripeBase []int32 // per node: global id of its first stripe; len P+1

	// rowBounds, when non-nil, replaces the equal-rows formula with explicit
	// A/C row-block boundaries (len P+1) — the load-balanced partitioning
	// extension. B's distribution (column blocks) stays equal either way.
	rowBounds []int32
}

// AutoWidth is the Table 1 stripe-width rule: the power of two nearest to
// cols/512, at least 8.
func AutoWidth(cols int32) int32 {
	w := float64(cols) / 512
	if w < 8 {
		return 8
	}
	return int32(1) << int32(math.Round(math.Log2(w)))
}

// NewLayout validates and builds the partition geometry.
func NewLayout(numRows, numCols int32, p int, w int32) (*Layout, error) {
	if numRows <= 0 || numCols <= 0 {
		return nil, fmt.Errorf("core: invalid matrix shape %dx%d", numRows, numCols)
	}
	if p < 1 {
		return nil, fmt.Errorf("core: need at least one node, got %d", p)
	}
	if w < 1 {
		return nil, fmt.Errorf("core: stripe width must be positive, got %d", w)
	}
	if int32(p) > numCols {
		return nil, fmt.Errorf("core: more nodes (%d) than matrix columns (%d)", p, numCols)
	}
	l := &Layout{NumRows: numRows, NumCols: numCols, P: p, W: w, stripeBase: make([]int32, p+1)}
	for j := 0; j < p; j++ {
		b := dense.BlockOf(int(numCols), p, j)
		n := int32((b.Len() + int(w) - 1) / int(w))
		l.stripeBase[j+1] = l.stripeBase[j] + n
	}
	return l, nil
}

// WithRowBounds returns a copy of the layout using explicit A/C row-block
// boundaries (ascending, bounds[0]=0, bounds[P]=NumRows, strictly
// increasing). Stripe geometry (which follows B's column blocks) is shared.
func (l *Layout) WithRowBounds(bounds []int32) (*Layout, error) {
	if len(bounds) != l.P+1 {
		return nil, fmt.Errorf("core: need %d row bounds, got %d", l.P+1, len(bounds))
	}
	if bounds[0] != 0 || bounds[l.P] != l.NumRows {
		return nil, fmt.Errorf("core: row bounds must span [0,%d], got [%d,%d]", l.NumRows, bounds[0], bounds[l.P])
	}
	for i := 0; i < l.P; i++ {
		if bounds[i+1] <= bounds[i] {
			return nil, fmt.Errorf("core: row bounds not strictly increasing at %d", i)
		}
	}
	out := *l
	out.rowBounds = append([]int32(nil), bounds...)
	return &out, nil
}

// NumStripes returns the total number of stripe columns across all nodes.
func (l *Layout) NumStripes() int32 { return l.stripeBase[l.P] }

// RowBlock returns node i's A/C row range.
func (l *Layout) RowBlock(i int) dense.Block {
	if l.rowBounds != nil {
		return dense.Block{Lo: int(l.rowBounds[i]), Hi: int(l.rowBounds[i+1])}
	}
	return dense.BlockOf(int(l.NumRows), l.P, i)
}

// ColBlock returns node j's B row range (equivalently, its megatile column
// range in A).
func (l *Layout) ColBlock(j int) dense.Block { return dense.BlockOf(int(l.NumCols), l.P, j) }

// RowOwner returns the node owning A/C row r.
func (l *Layout) RowOwner(r int32) int {
	if l.rowBounds != nil {
		// Binary search over the explicit boundaries.
		lo, hi := 0, l.P-1
		for lo < hi {
			mid := (lo + hi) / 2
			if l.rowBounds[mid+1] > r {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	return dense.OwnerOf(int(l.NumRows), l.P, int(r))
}

// ColOwner returns the node owning B row c (A column c).
func (l *Layout) ColOwner(c int32) int { return dense.OwnerOf(int(l.NumCols), l.P, int(c)) }

// StripeOfCol returns the global stripe id containing A column c. Stripe ids
// are monotone non-decreasing in c.
func (l *Layout) StripeOfCol(c int32) int32 {
	j := l.ColOwner(c)
	b := l.ColBlock(j)
	return l.stripeBase[j] + (c-int32(b.Lo))/l.W
}

// StripeOwner returns the node hosting the dense stripe sid.
func (l *Layout) StripeOwner(sid int32) int {
	// stripeBase is sorted; p is small, so a linear scan is fine and avoids
	// allocation. Binary search would not be faster below ~64 nodes.
	for j := 0; j < l.P; j++ {
		if sid < l.stripeBase[j+1] {
			return j
		}
	}
	panic(fmt.Sprintf("core: stripe id %d out of range [0,%d)", sid, l.NumStripes()))
}

// StripeCols returns the half-open A-column range [lo, hi) of stripe sid.
func (l *Layout) StripeCols(sid int32) (lo, hi int32) {
	j := l.StripeOwner(sid)
	b := l.ColBlock(j)
	lo = int32(b.Lo) + (sid-l.stripeBase[j])*l.W
	hi = lo + l.W
	if hi > int32(b.Hi) {
		hi = int32(b.Hi)
	}
	return lo, hi
}

// StripeWidthOf returns the number of columns in stripe sid (W except
// possibly for the last stripe of each megatile column).
func (l *Layout) StripeWidthOf(sid int32) int32 {
	lo, hi := l.StripeCols(sid)
	return hi - lo
}

// NodeStripeRange returns the global stripe ids [lo, hi) hosted by node j.
func (l *Layout) NodeStripeRange(j int) (lo, hi int32) {
	return l.stripeBase[j], l.stripeBase[j+1]
}
