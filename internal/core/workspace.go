package core

import (
	"fmt"
	"sync"

	"twoface/internal/cluster"
	"twoface/internal/kernels"
	"twoface/internal/sparse"
)

// Per-worker scratch buffers for the executor's hot loops. Each worker
// goroutine checks one workspace out of a package-level sync.Pool for its
// lifetime and returns it on exit, so steady-state execution — including
// repeated Exec calls during GNN training — allocates nothing per stripe or
// panel: every buffer grows to its high-water mark and is reused.

// asyncScratch backs processAsyncBatch: the unique-column scan with its
// per-stripe bounds, the per-column row references, the copies of cache-hit
// rows, the per-stripe miss/coalesce scratch, the aggregated fetch regions,
// the one-sided fetch buffer, the stripe-local accumulator, and a staged
// SDDMM stripe's values.
// Retention note: every asyncScratch field is a slice of values (indices,
// regions, or float64 copies — crows holds copies of cached rows, rowRef
// holds indices, never slice headers into foreign arrays), so parking one in
// the pool pins only its own capacity. That property is what lets it skip a
// release step; panelScratch, whose table holds slice headers aliasing B, a
// root's window, or a recv arena, cannot (see panelScratch.release).
type asyncScratch struct {
	cols    []int32
	bufRow  []int32
	regions []cluster.Region
	drows   []float64
	acc     kernels.RowAccumulator

	stripeColPtr []int32          // bounds of each batch stripe's run in cols
	rowRef       []int32          // per col: >=0 drows row, <0 ^idx into crows
	crows        []float64        // copies of cache-hit rows (k elems each)
	missCols     []int32          // current stripe's miss columns
	missIdx      []int32          // their indices into cols
	regions2     []cluster.Region // current stripe's coalesced regions
	vals         []float64        // SDDMM values bound for a staged sink
}

var asyncScratchPool = sync.Pool{New: func() any { return new(asyncScratch) }}

// fetchBuf returns the fetch buffer resized to n elements, reusing capacity.
func (ws *asyncScratch) fetchBuf(n int) []float64 {
	if cap(ws.drows) < n {
		ws.drows = make([]float64, n)
	}
	return ws.drows[:n]
}

// row returns the dense row a column's rowRef names: a fetched row in drows,
// or a cache-hit copy in crows.
func (ws *asyncScratch) row(ref int32, k int) []float64 {
	if ref >= 0 {
		return ws.drows[int(ref)*k : int(ref)*k+k]
	}
	return ws.crows[int(^ref)*k : int(^ref)*k+k]
}

// recvArena is the pooled backing store for the dense stripes a node receives
// by copy, over a transport that cannot alias the root's window (TCP); on the
// simulator every stripe arrives as a view and no arena space is taken.
// syncTransfers slices each copied stripe's buffer out of one grown-once
// allocation instead of a per-stripe make, so repeated runs allocate nothing
// steady-state (mirroring the async/panel scratch pools). The arena is
// returned to the pool only after the run's panel workers — the buffers'
// readers — have all finished.
type recvArena struct {
	buf []float64
}

var recvArenaPool = sync.Pool{New: func() any { return new(recvArena) }}

// grab returns the arena resized to n elements, reusing capacity.
func (a *recvArena) grab(n int64) []float64 {
	if int64(cap(a.buf)) < n {
		a.buf = make([]float64, n)
	}
	return a.buf[:n]
}

// panelScratch backs processSyncRowPanel: the accumulator row for rows the
// panel may not sum in C directly (async stripes share them, or the sink is
// staged), the panel's dense rows indexed by the slots of its column table
// (see panelCols), and a sampled row run's surviving multipliers and slots
// (vals also holds a staged SDDMM panel's values).
type panelScratch struct {
	acc   []float64
	rows  [][]float64
	vals  []float64
	slots []int32
}

var panelScratchPool = sync.Pool{New: func() any { return new(panelScratch) }}

// rowSources are the dense inputs a node's sync panels read B rows from: own
// holds its column block's rows (k elements each, from the block's first
// column on), and recv[sid] the stripe sid it received — a view of the
// root's window or a copy — or nil where none arrived.
type rowSources struct {
	rank int
	own  []float64
	recv [][]float64
}

// resolveCols points rows[i] at the dense B row of panel n's i-th column in t,
// k elements each, at the source and offset the plan recorded for it, and
// sizes the accumulator.
func (ws *panelScratch) resolveCols(t *panelCols, n int, src rowSources, k int) error {
	if cap(ws.acc) < k {
		ws.acc = make([]float64, k)
	}
	ws.acc = ws.acc[:k]
	ws.rows = ws.rows[:0]
	for i := t.colPtr[n]; i < t.colPtr[n+1]; i++ {
		buf := src.own
		if sid := t.src[i]; sid >= 0 {
			if buf = src.recv[sid]; buf == nil {
				return fmt.Errorf("core: rank %d: dense stripe %d for column %d was never received", src.rank, sid, t.cols[i])
			}
		}
		off := int(t.off[i]) * k
		ws.rows = append(ws.rows, buf[off:off+k])
	}
	return nil
}

// release drops every row reference the table accumulated so the scratch can
// sit in the pool without pinning foreign memory. The table's entries are
// slice headers aliasing rows of the dense input B — the node's own block, or
// a root's exposed window read in place — and recv-arena buffers;
// resolveCols only truncates (ws.rows[:0]), which keeps those pointers live
// in the backing array past Put — a pooled scratch would otherwise retain a
// whole B or receive arena across runs. Capacity is kept; only the
// references are cleared.
func (ws *panelScratch) release() {
	clear(ws.rows[:cap(ws.rows)])
	ws.rows = ws.rows[:0]
}

// sampled filters a row run's entries and their slots through the sample
// mask, in order, into the scratch's vals and slots.
func (ws *panelScratch) sampled(es []sparse.NZ, slots []int32, rowLo int32, smp sampling) ([]float64, []int32) {
	ws.vals, ws.slots = ws.vals[:0], ws.slots[:0]
	for j, e := range es {
		if !smp.masked(rowLo+e.Row, e.Col) {
			ws.vals = append(ws.vals, e.Val)
			ws.slots = append(ws.slots, slots[j])
		}
	}
	return ws.vals, ws.slots
}
