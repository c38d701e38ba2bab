package core

import (
	"sync"

	"twoface/internal/cluster"
	"twoface/internal/kernels"
)

// Per-worker scratch buffers for the executor's hot loops. Each worker
// goroutine checks one workspace out of a package-level sync.Pool for its
// lifetime and returns it on exit, so steady-state execution — including
// repeated Exec calls during GNN training — allocates nothing per stripe or
// panel: every buffer grows to its high-water mark and is reused.

// asyncScratch backs processAsyncBatch: the unique-column scan with its
// per-stripe bounds, the per-column row references, the copies of cache-hit
// rows, the per-stripe miss/coalesce scratch, the aggregated fetch regions,
// the one-sided fetch buffer, and the stripe-local accumulator.
// Retention note: every asyncScratch field is a slice of values (indices,
// regions, or float64 copies — crows holds copies of cached rows, rowRef
// holds indices, never slice headers into foreign arrays), so parking one in
// the pool pins only its own capacity. That property is what lets it skip a
// release step; panelScratch, whose table holds slice headers aliasing recv
// arenas, B, and cache entries, cannot (see panelScratch.release).
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
}

var asyncScratchPool = sync.Pool{New: func() any { return new(asyncScratch) }}

// fetchBuf returns the fetch buffer resized to n elements, reusing capacity.
func (ws *asyncScratch) fetchBuf(n int) []float64 {
	if cap(ws.drows) < n {
		ws.drows = make([]float64, n)
	}
	return ws.drows[:n]
}

// recvArena is the pooled backing store for a node's dense-stripe receive
// buffers: syncTransfers slices each stripe's buffer out of one grown-once
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
// staged) and the pre-resolved column table. slot/stamp map a global column to its table
// entry; stamps are epoch-guarded so starting a panel never clears them.
type panelScratch struct {
	acc   []float64
	table [][]float64
	slot  []int32
	stamp []uint32
	epoch uint32
}

var panelScratchPool = sync.Pool{New: func() any { return new(panelScratch) }}

// begin sizes the scratch for a panel over numCols global columns with dense
// width k and opens a fresh epoch.
func (ws *panelScratch) begin(numCols, k int) {
	if cap(ws.acc) < k {
		ws.acc = make([]float64, k)
	}
	ws.acc = ws.acc[:k]
	if len(ws.stamp) < numCols {
		ws.slot = make([]int32, numCols)
		ws.stamp = make([]uint32, numCols)
	}
	ws.epoch++
	if ws.epoch == 0 {
		clear(ws.stamp)
		ws.epoch = 1
	}
	ws.table = ws.table[:0]
}

// release drops every row reference the table accumulated so the scratch can
// sit in the pool without pinning foreign memory. The table's entries are
// slice headers aliasing recv-arena buffers, rows of the dense input B, and
// cross-run cache entries; begin only truncates (ws.table[:0]), which keeps
// those pointers live in the backing array past Put — a pooled scratch would
// otherwise retain an entire receive arena across runs. Capacity is kept;
// only the references are cleared.
func (ws *panelScratch) release() {
	clear(ws.table[:cap(ws.table)])
	ws.table = ws.table[:0]
}

// resolved returns the dense B row for col, resolving each distinct column
// once per panel through `resolve` and serving repeats from the flat table,
// so the caller's innermost loop is closure-free.
func (ws *panelScratch) resolved(col int32, resolve rowResolver) ([]float64, error) {
	if ws.stamp[col] != ws.epoch {
		brow, err := resolve(col)
		if err != nil {
			return nil, err
		}
		ws.stamp[col] = ws.epoch
		ws.slot[col] = int32(len(ws.table))
		ws.table = append(ws.table, brow)
		return brow, nil
	}
	return ws.table[ws.slot[col]], nil
}
