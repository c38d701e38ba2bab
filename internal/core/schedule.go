package core

import (
	"errors"
	"math"
	"sync"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/model"
	"twoface/internal/obs"
)

// The async communication scheduler. Issuing one GetIndexed per async stripe
// pays the ~7.5x per-request overhead AlphaA every time, even when consecutive
// stripes live on the same owner. The schedule here groups consecutive
// same-owner stripes into one aggregated request whose regions are each
// stripe's own coalesced region list, merged only where exactly contiguous —
// so the fetched row multiset is what per-stripe gets would fetch, carried by
// far fewer requests. On top of the batches sits a per-rank bounded row cache
// that serves rows already fetched by an earlier run on the same Prep and B,
// dropping them from the outgoing region lists entirely.

// Scheduler metrics (inert until obs.Default is enabled; counters are cheap
// unconditional atomics, histograms are guarded at the call sites).
var (
	metricBatchStripes    = obs.Default.Histogram("exec.async.batch_size", obs.ExpBuckets(1, 2, 10))
	metricCacheHits       = obs.Default.Counter("exec.async.cache_hits")
	metricCacheMisses     = obs.Default.Counter("exec.async.cache_misses")
	metricCacheSavedBytes = obs.Default.Counter("exec.async.cache_saved_bytes")
)

// asyncBatch is one aggregated one-sided request: the async stripes with
// indices [lo, hi) in a node's AsyncMatrix, all owned by the same rank.
type asyncBatch struct {
	lo, hi int
	owner  int
}

// buildAsyncSchedule groups a node's async stripe queue into owner-major
// batches. The queue is already owner-major — stripe ids ascend and stripe
// ownership is monotone in the id — so batches are simply maximal runs of
// consecutive same-owner stripes, cut whenever the estimated one-sided
// payload (distinct rows x K x 8 bytes) would exceed maxBatchBytes. Every
// batch holds at least one stripe, so a single oversized stripe still ships.
func buildAsyncSchedule(layout *Layout, np *NodePart, k int, maxBatchBytes int64, dst []asyncBatch) []asyncBatch {
	dst = dst[:0]
	n := np.Async.NumStripes()
	if n == 0 {
		return dst
	}
	cur := asyncBatch{lo: 0, hi: 1, owner: int(layout.StripeOwner(np.Async.StripeIDs[0]))}
	bytes := stripeFetchBytes(np, 0, k)
	for i := 1; i < n; i++ {
		owner := int(layout.StripeOwner(np.Async.StripeIDs[i]))
		sb := stripeFetchBytes(np, i, k)
		if owner == cur.owner && bytes+sb <= maxBatchBytes {
			cur.hi = i + 1
			bytes += sb
			continue
		}
		dst = append(dst, cur)
		cur = asyncBatch{lo: i, hi: i + 1, owner: owner}
		bytes = sb
	}
	return append(dst, cur)
}

// stripeFetchBytes estimates the one-sided payload of async stripe i: its
// distinct referenced columns times one dense row. Gap rows added by region
// coalescing are not counted; the estimate only steers batch boundaries.
func stripeFetchBytes(np *NodePart, i int, k int) int64 {
	entries := np.Async.Entries[np.Async.StripePtr[i]:np.Async.StripePtr[i+1]]
	var rows int64
	prev := int32(-1)
	for _, e := range entries {
		if e.Col != prev {
			rows++
			prev = e.Col
		}
	}
	return rows * int64(k) * 8
}

// asyncBatchEstimate predicts the scheduler's mean stripes-per-get for the
// classifier: the batch cap divided by the mean per-stripe payload, clamped
// to [1, 16] (owner changes and region growth bound real batches well below
// the cap's arithmetic limit). The estimate only shifts the classifier's
// sync/async split point; execution batches whatever the schedule yields.
func asyncBatchEstimate(infos []model.StripeInfo, params Params) float64 {
	if len(infos) == 0 {
		return 1
	}
	var rows int64
	for _, s := range infos {
		rows += s.RowsNeeded
	}
	if rows == 0 {
		return 1
	}
	meanBytes := float64(rows) / float64(len(infos)) * float64(params.K) * 8
	est := float64(params.MaxBatchBytes) / meanBytes
	if est < 1 {
		return 1
	}
	if est > 16 {
		est = 16
	}
	return est
}

// missMark is the rowRef placeholder for a column that must be fetched.
// Resolved references are >= 0 (a drows row index) or negative (^idx into the
// cached-row copies), so the marker can never collide with either.
const missMark = int32(math.MaxInt32)

// planBatchRegions turns a batch's gathered columns (ws.cols, with per-stripe
// bounds ws.stripeColPtr and cache hits already marked in ws.rowRef) into the
// aggregated request's region list. Each stripe's miss columns are coalesced
// independently under maxGap, and regions are merged across stripe boundaries
// only when exactly contiguous — so a batch fetches exactly the rows its
// stripes would fetch one get each, however the schedule cuts the batches
// (stripes partition the column space, so per-stripe fetch sets are disjoint
// by construction).
// On return ws.regions holds the request and every missMark in ws.rowRef has
// been resolved to its drows row index; the total fetched row count is
// returned.
func planBatchRegions(ws *asyncScratch, maxGap int32, ownerColLo int32, k int) int64 {
	ws.regions = ws.regions[:0]
	base := int64(0)
	for s := 0; s+1 < len(ws.stripeColPtr); s++ {
		lo, hi := ws.stripeColPtr[s], ws.stripeColPtr[s+1]
		ws.missCols = ws.missCols[:0]
		ws.missIdx = ws.missIdx[:0]
		for i := lo; i < hi; i++ {
			if ws.rowRef[i] == missMark {
				ws.missCols = append(ws.missCols, ws.cols[i])
				ws.missIdx = append(ws.missIdx, i)
			}
		}
		if len(ws.missCols) == 0 {
			continue
		}
		var fetched int64
		ws.regions2, ws.bufRow, fetched = coalesceRegionsInto(ws.regions2, ws.bufRow, ws.missCols, maxGap, ownerColLo, k)
		for j, idx := range ws.missIdx {
			ws.rowRef[idx] = int32(base) + ws.bufRow[j]
		}
		for _, reg := range ws.regions2 {
			if n := len(ws.regions); n > 0 && ws.regions[n-1].Off+ws.regions[n-1].Elems == reg.Off {
				ws.regions[n-1].Elems += reg.Elems
			} else {
				ws.regions = append(ws.regions, reg)
			}
		}
		base += fetched
	}
	return base
}

// rowCache is one rank's bounded cache of remote B rows fetched one-sidedly,
// in the epoch-stamped spirit of kernels.RowAccumulator: stamp[col] == epoch
// marks a cached column, slot[col] its row index into data, and invalidation
// is a single epoch bump (with a full stamp clear only on uint32 wraparound).
// Within one Exec no column is ever needed twice — stripes partition the
// column space — so hits come from *reuse across runs* on the same Prep and
// B (GNN training steps, iterative solvers, SpMM+SDDMM pipelines). Fill
// policy is insert-until-full: rows keep their slots until invalidation.
type rowCache struct {
	mu    sync.Mutex
	limit int64 // max float64 elems in data
	epoch uint32
	stamp []uint32
	slot  []int32
	data  []float64

	// Per-run counters, zeroed by beginRun and summed into Result.RowCache.
	hits, misses, savedElems int64
}

func newRowCache(numCols int, limit int64) *rowCache {
	return &rowCache{
		limit: limit,
		epoch: 1,
		stamp: make([]uint32, numCols),
		slot:  make([]int32, numCols),
	}
}

// invalidate drops every cached row in O(1).
func (c *rowCache) invalidate() {
	c.mu.Lock()
	c.epoch++
	if c.epoch == 0 {
		clear(c.stamp)
		c.epoch = 1
	}
	c.data = c.data[:0]
	c.mu.Unlock()
}

func (c *rowCache) beginRun() {
	c.mu.Lock()
	c.hits, c.misses, c.savedElems = 0, 0, 0
	c.mu.Unlock()
}

// RowCacheStats summarizes the remote-row cache's behaviour during one run.
type RowCacheStats struct {
	// Hits counts async columns served from the cache; Misses those fetched.
	Hits, Misses int64
	// SavedBytes is the one-sided payload the hits avoided (Hits x K x 8).
	SavedBytes int64
}

// HitRate returns Hits/(Hits+Misses), or 0 for an idle cache.
func (s RowCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// attachRowCaches returns the per-rank row caches for a run against B,
// creating them on first use and invalidating them whenever B's backing
// array changes — identity first (pointer and length), plus a strided
// content fingerprint that catches the common in-place mutation patterns.
// Returns nil (cache off) under a negative RowCacheElems.
func (p *Prep) attachRowCaches(b *dense.Matrix) []*rowCache {
	if p.Params.RowCacheElems < 0 {
		return nil
	}
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	if p.rowCaches == nil {
		p.rowCaches = make([]*rowCache, p.Params.P)
		for i := range p.rowCaches {
			p.rowCaches[i] = newRowCache(int(p.Layout.NumCols), p.Params.RowCacheElems)
		}
	}
	var key *float64
	if len(b.Data) > 0 {
		key = &b.Data[0]
	}
	fp := fingerprint(b.Data)
	if key != p.cacheKey || len(b.Data) != p.cacheLen || fp != p.cacheFP {
		for _, c := range p.rowCaches {
			c.invalidate()
		}
		p.cacheKey, p.cacheLen, p.cacheFP = key, len(b.Data), fp
	}
	for _, c := range p.rowCaches {
		c.beginRun()
	}
	return p.rowCaches
}

// FingerprintData exposes the dense-operand identity hash that keys the
// cross-run row cache (DESIGN.md section 8). It is a sampled heuristic for
// detecting in-place mutation of one caller's buffer; it is NOT collision
// free across distinct operands, so the serving layer's request coalescing
// deliberately does not key on it (see internal/serve/coalesce.go).
func FingerprintData(data []float64) uint64 { return fingerprint(data) }

// fingerprint hashes 16 strided samples of the buffer plus its final
// element — a cheap guard against callers mutating B in place between runs
// on one Plan. The last element is always mixed: the strided loop rarely
// lands on it (only when step divides n-1), and without it a tail-only
// mutation would silently reuse stale cached rows.
func fingerprint(data []float64) uint64 {
	var h uint64 = 14695981039346656037 // FNV offset basis
	n := len(data)
	if n == 0 {
		return h
	}
	step := n / 16
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i += step {
		h ^= math.Float64bits(data[i])
		h *= 1099511628211 // FNV prime
	}
	if (n-1)%step != 0 {
		h ^= math.Float64bits(data[n-1])
		h *= 1099511628211
	}
	return h
}

// processAsyncBatch is Algorithm 3 over one owner-batch of async stripes:
// gather each stripe's distinct columns, serve cache hits locally, coalesce
// the misses into one aggregated GetIndexed, then run kn's stripe arithmetic
// against the combined fetch+cache buffers. Modeled cost: one
// OneSidedBatchCost charge for the whole request (AlphaA once), one
// AsyncComputeCost charge per stripe, and a SyncFallbackPull degradation —
// applied per batch — when the retry budget runs out.
func processAsyncBatch(prep *Prep, r *cluster.Rank, np *NodePart, out accumSink, kn unitKernel, ws *asyncScratch, bt asyncBatch, cache *rowCache, skipCompute bool, smp sampling) error {
	layout, params := prep.Layout, prep.Params
	net := r.Net()
	k := params.K
	ownerBlock := layout.ColBlock(bt.owner)

	// Gather the distinct columns of each stripe, back to back.
	ws.cols = ws.cols[:0]
	ws.stripeColPtr = ws.stripeColPtr[:0]
	for si := bt.lo; si < bt.hi; si++ {
		ws.stripeColPtr = append(ws.stripeColPtr, int32(len(ws.cols)))
		prev := int32(-1)
		for _, e := range np.Async.Entries[np.Async.StripePtr[si]:np.Async.StripePtr[si+1]] {
			if e.Col != prev {
				ws.cols = append(ws.cols, e.Col)
				prev = e.Col
			}
		}
	}
	ws.stripeColPtr = append(ws.stripeColPtr, int32(len(ws.cols)))
	metricAsyncStripes.Add(int64(bt.hi - bt.lo))
	if len(ws.cols) == 0 {
		return nil
	}

	// Serve cached rows: a hit's row is copied out under the lock (the cache
	// may grow concurrently) and its column dropped from the fetch set.
	if cap(ws.rowRef) < len(ws.cols) {
		ws.rowRef = make([]int32, len(ws.cols))
	}
	ws.rowRef = ws.rowRef[:len(ws.cols)]
	ws.crows = ws.crows[:0]
	var hits int64
	if cache != nil {
		cache.mu.Lock()
		for i, col := range ws.cols {
			if cache.stamp[col] == cache.epoch {
				off := int(cache.slot[col]) * k
				ws.rowRef[i] = int32(^(len(ws.crows) / k))
				ws.crows = append(ws.crows, cache.data[off:off+k]...)
				hits++
			} else {
				ws.rowRef[i] = missMark
			}
		}
		cache.mu.Unlock()
	} else {
		for i := range ws.rowRef {
			ws.rowRef[i] = missMark
		}
	}
	misses := int64(len(ws.cols)) - hits

	// Coalesce the misses into the aggregated request and issue it.
	fetchedRows := planBatchRegions(ws, params.MaxCoalesceGap, int32(ownerBlock.Lo), k)
	drows := ws.fetchBuf(int(fetchedRows) * k)
	elems := fetchedRows * int64(k)
	var commCost float64
	if len(ws.regions) > 0 {
		if _, err := r.GetIndexed(bt.owner, "B", ws.regions, drows); err != nil {
			if !errors.Is(err, cluster.ErrRetryExhausted) {
				return err
			}
			// Graceful degradation, per batch: re-fetch the whole aggregated
			// region list through the reliable synchronous path (identical
			// packing, so the compute below is oblivious) and attribute the
			// resend to SyncComm in the Breakdown ledger.
			if _, err := r.SyncFallbackPull(bt.owner, "B", ws.regions, drows); err != nil {
				return err
			}
			commCost = net.MulticastCost(elems, 1)
			r.ChargeOp(cluster.SyncComm, "degrade.refetch", commCost)
			metricDegradations.Inc()
		} else {
			commCost = net.OneSidedBatchCost(len(ws.regions), elems)
			r.ChargeOp(cluster.AsyncComm, "get.indexed", commCost)
		}
	}
	metricCacheHits.Add(hits)
	metricCacheMisses.Add(misses)
	metricCacheSavedBytes.Add(hits * int64(k) * 8)
	if obs.Default.Enabled() {
		metricBatchStripes.Observe(float64(bt.hi - bt.lo))
		metricRegionsPerGet.Observe(float64(len(ws.regions)))
		for _, reg := range ws.regions {
			metricRegionElems.Observe(float64(reg.Elems))
		}
	}

	// Remember the fetched rows (degraded fetches too: the data is identical)
	// and account the run's cache traffic.
	if cache != nil {
		cache.mu.Lock()
		cache.hits += hits
		cache.misses += misses
		cache.savedElems += hits * int64(k)
		for i, col := range ws.cols {
			ref := ws.rowRef[i]
			if ref >= 0 && cache.stamp[col] != cache.epoch && int64(len(cache.data)+k) <= cache.limit {
				cache.stamp[col] = cache.epoch
				cache.slot[col] = int32(len(cache.data) / k)
				cache.data = append(cache.data, drows[int(ref)*k:int(ref)*k+k]...)
			}
		}
		cache.mu.Unlock()
	}

	// Per-stripe arithmetic with a per-stripe AsyncComp charge. The batch's
	// communication cost is spread evenly across its stripes for the
	// stripe-seconds histogram.
	commShare := commCost / float64(bt.hi-bt.lo)
	for si := bt.lo; si < bt.hi; si++ {
		nnz := np.Async.StripePtr[si+1] - np.Async.StripePtr[si]
		if nnz == 0 {
			continue
		}
		if !skipCompute {
			clo := ws.stripeColPtr[si-bt.lo]
			kn.stripe(np, si, ws.cols[clo:ws.stripeColPtr[si-bt.lo+1]], ws.rowRef[clo:], out, ws, k, smp)
		}
		kept := float64(nnz) * smp.computeScale()
		compCost := net.AsyncComputeCost(int64(kept), k, params.ModelAsyncCompThreads, 1)
		r.ChargeOp(cluster.AsyncComp, "compute.async.stripe", compCost)
		metricStripeSeconds.Observe(commShare + compCost)
	}
	return nil
}
