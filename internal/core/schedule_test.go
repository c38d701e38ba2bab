package core

import (
	"math"
	"testing"
	"testing/quick"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/model"
	"twoface/internal/sparse"
)

// forcedPrep preprocesses with a pinned sync/async split so a plan and its
// per-stripe twin classify identically (the classifier otherwise amortizes
// AlphaA over the expected batch and shifts the split point).
func forcedPrep(t *testing.T, a *sparse.COO, params Params, frac float64) *Prep {
	t.Helper()
	params.ForceSplit = &frac
	prep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

func TestBuildAsyncScheduleProperties(t *testing.T) {
	a := randomCOO(240, 240, 6000, 11)
	prep := forcedPrep(t, a, basicParams(4, 8, 8), 1.0) // everything async
	layout := prep.Layout
	k := prep.Params.K
	for _, maxBytes := range []int64{1, 4 << 10, 1 << 20} {
		for ni := range prep.Nodes {
			np := &prep.Nodes[ni]
			batches := buildAsyncSchedule(layout, np, k, maxBytes, nil)
			n := np.Async.NumStripes()
			if n == 0 {
				if len(batches) != 0 {
					t.Fatalf("node %d: batches for empty queue", ni)
				}
				continue
			}
			// Batches tile [0, n) contiguously.
			next := 0
			for _, bt := range batches {
				if bt.lo != next || bt.hi <= bt.lo {
					t.Fatalf("node %d cap %d: batch %+v does not tile (want lo %d)", ni, maxBytes, bt, next)
				}
				next = bt.hi
				// Every stripe in the batch has the batch's owner.
				for s := bt.lo; s < bt.hi; s++ {
					if int(layout.StripeOwner(np.Async.StripeIDs[s])) != bt.owner {
						t.Fatalf("node %d: stripe %d owner mismatch in batch %+v", ni, s, bt)
					}
				}
				// Multi-stripe batches respect the byte cap.
				if bt.hi-bt.lo > 1 {
					var bytes int64
					for s := bt.lo; s < bt.hi; s++ {
						bytes += stripeFetchBytes(np, s, k)
					}
					if bytes > maxBytes {
						t.Fatalf("node %d: batch %+v carries %d bytes > cap %d", ni, bt, bytes, maxBytes)
					}
				}
			}
			if next != n {
				t.Fatalf("node %d: batches cover %d of %d stripes", ni, next, n)
			}
		}
	}
}

func TestBuildAsyncScheduleTinyCapSingletons(t *testing.T) {
	a := randomCOO(200, 200, 4000, 3)
	prep := forcedPrep(t, a, basicParams(4, 8, 8), 1.0)
	for ni := range prep.Nodes {
		np := &prep.Nodes[ni]
		batches := buildAsyncSchedule(prep.Layout, np, prep.Params.K, 1, nil)
		for _, bt := range batches {
			if bt.hi-bt.lo != 1 {
				t.Fatalf("node %d: cap 1 byte must force singleton batches, got %+v", ni, bt)
			}
		}
	}
}

// expandRegions lists the global B rows a region list fetches, in fill order.
func expandRegions(regions []cluster.Region, ownerColLo int32, k int) []int32 {
	var rows []int32
	for _, r := range regions {
		start := ownerColLo + int32(r.Off/int64(k))
		for i := int64(0); i < r.Elems/int64(k); i++ {
			rows = append(rows, start+int32(i))
		}
	}
	return rows
}

// TestPlanBatchRegionsMatchesPerStripe is the satellite property test: for
// every batch, the aggregated request must fetch exactly the rows the
// per-stripe path fetches — same multiset, same fill order — and resolve
// every column to its own row.
func TestPlanBatchRegionsMatchesPerStripe(t *testing.T) {
	f := func(seed uint64, gapRaw uint8) bool {
		gap := int32(gapRaw%4) + 1
		a := randomCOO(160, 160, 3000, seed)
		params := basicParams(4, 4, 8)
		frac := 1.0
		params.ForceSplit = &frac
		prep, err := Preprocess(a, params)
		if err != nil {
			return false
		}
		k := prep.Params.K
		ws := new(asyncScratch)
		for ni := range prep.Nodes {
			np := &prep.Nodes[ni]
			for _, bt := range buildAsyncSchedule(prep.Layout, np, k, 8<<10, nil) {
				ownerColLo := int32(prep.Layout.ColBlock(bt.owner).Lo)
				// Gather like processAsyncBatch, with no cache (all misses).
				ws.cols = ws.cols[:0]
				ws.stripeColPtr = ws.stripeColPtr[:0]
				var want []int32 // per-stripe path's fetched rows, concatenated
				for s := bt.lo; s < bt.hi; s++ {
					ws.stripeColPtr = append(ws.stripeColPtr, int32(len(ws.cols)))
					entries := np.Async.Entries[np.Async.StripePtr[s]:np.Async.StripePtr[s+1]]
					ws.cols = appendUniqueCols2(ws.cols, entries)
					regs, _, _ := coalesceRegionsInto(nil, nil, uniqueCols(entries), gap, ownerColLo, k)
					want = append(want, expandRegions(regs, ownerColLo, k)...)
				}
				ws.stripeColPtr = append(ws.stripeColPtr, int32(len(ws.cols)))
				if cap(ws.rowRef) < len(ws.cols) {
					ws.rowRef = make([]int32, len(ws.cols))
				}
				ws.rowRef = ws.rowRef[:len(ws.cols)]
				for i := range ws.rowRef {
					ws.rowRef[i] = missMark
				}
				fetched := planBatchRegions(ws, gap, ownerColLo, k)

				got := expandRegions(ws.regions, ownerColLo, k)
				if int64(len(got)) != fetched || len(got) != len(want) {
					return false
				}
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
				for i, col := range ws.cols {
					ref := ws.rowRef[i]
					if ref < 0 || int(ref) >= len(got) || got[ref] != col {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// appendUniqueCols2 appends (rather than resets) the distinct columns of a
// column-major entry slice — the batch gather of processAsyncBatch.
func appendUniqueCols2(dst []int32, entries []sparse.NZ) []int32 {
	prev := int32(-1)
	for _, e := range entries {
		if e.Col != prev {
			dst = append(dst, e.Col)
			prev = e.Col
		}
	}
	return dst
}

func TestRowCacheInvalidateWraparound(t *testing.T) {
	c := newRowCache(8, 1<<10)
	c.epoch = math.MaxUint32
	for i := range c.stamp {
		c.stamp[i] = math.MaxUint32 // everything cached at the last epoch
	}
	c.data = append(c.data, 1, 2, 3)
	c.invalidate()
	if c.epoch != 1 {
		t.Fatalf("epoch after wraparound = %d, want 1", c.epoch)
	}
	if len(c.data) != 0 {
		t.Fatal("invalidate must drop cached rows")
	}
	for i, s := range c.stamp {
		if s == c.epoch {
			t.Fatalf("stamp[%d] still matches the epoch after wraparound", i)
		}
	}
}

func TestAttachRowCachesLifecycle(t *testing.T) {
	a := randomCOO(120, 120, 2000, 9)
	params := basicParams(4, 8, 8)
	prep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	b := dense.Random(120, 8, 1)
	caches := prep.attachRowCaches(b)
	if len(caches) != 4 {
		t.Fatalf("got %d caches, want one per rank", len(caches))
	}
	epoch0 := caches[0].epoch

	// Same B again: no invalidation.
	if again := prep.attachRowCaches(b); again[0].epoch != epoch0 {
		t.Fatal("same B must not invalidate the caches")
	}
	// Different B buffer: invalidated.
	if other := prep.attachRowCaches(dense.Random(120, 8, 2)); other[0].epoch == epoch0 {
		t.Fatal("a different B must invalidate the caches")
	}
	// In-place mutation of the same buffer: the fingerprint catches it.
	epoch1 := caches[0].epoch
	for i := range b.Data {
		b.Data[i] += 1
	}
	if mut := prep.attachRowCaches(b); mut[0].epoch == epoch1 {
		t.Fatal("mutating B in place must invalidate the caches")
	}

	// A negative bound disables the cache entirely.
	params.RowCacheElems = -1
	offPrep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	if offPrep.attachRowCaches(b) != nil {
		t.Fatal("RowCacheElems < 0 must disable the row cache")
	}
}

func TestRowCacheRespectsLimit(t *testing.T) {
	a := randomCOO(200, 200, 5000, 21)
	params := basicParams(4, 8, 8)
	params.RowCacheElems = 4 * 8 // room for 4 rows per rank
	prep := forcedPrep(t, a, params, 1.0)
	b := dense.Random(200, 8, 3)
	clu, _ := cluster.New(4, cluster.Default())
	if _, err := Exec(prep, b, clu, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, c := range prep.rowCaches {
		if int64(len(c.data)) > c.limit {
			t.Fatalf("rank %d cache holds %d elems, limit %d", i, len(c.data), c.limit)
		}
	}
	// A second run still computes correctly with a mostly-cold cache.
	res, err := Exec(prep, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := a.ToCSR().Mul(b)
	if !res.C.AlmostEqual(want, 1e-9) {
		t.Fatal("bounded cache changed the result")
	}
	if res.RowCache.Misses == 0 {
		t.Fatal("a 4-row cache cannot serve every row of this workload")
	}
}

// TestExecBatchedMatchesPerStripe is the headline equivalence check: with the
// classification pinned, the batched schedule must move exactly the bytes its
// per-stripe twin moves (one get per async stripe, no cache — the seed
// schedule), in strictly fewer requests, and produce the same C; a warm second
// run must then move strictly fewer bytes, again with the same C.
func TestExecBatchedMatchesPerStripe(t *testing.T) {
	a := randomCOO(320, 320, 9000, 13)
	b := dense.Random(320, 8, 7)
	want, _ := a.ToCSR().Mul(b)

	twinParams := basicParams(4, 8, 8)
	twinParams.MaxBatchBytes, twinParams.RowCacheElems = 1, -1
	twinPrep := forcedPrep(t, a, twinParams, 0.5)
	clu, _ := cluster.New(4, cluster.Default())
	twin, err := Exec(twinPrep, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lt := twin.TotalTransfer

	batchedPrep := forcedPrep(t, a, basicParams(4, 8, 8), 0.5)
	cold, err := Exec(batchedPrep, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ct := cold.TotalTransfer

	if !twin.C.AlmostEqual(want, 1e-9) || !cold.C.AlmostEqual(want, 1e-9) {
		t.Fatal("a path diverged from the reference kernel")
	}
	if lt.OneSidedGets == 0 {
		t.Fatal("test workload has no async stripes; widen it")
	}
	if ct.OneSidedBytes != lt.OneSidedBytes {
		t.Fatalf("cold batched bytes %d != per-stripe bytes %d (fetch sets must be identical)", ct.OneSidedBytes, lt.OneSidedBytes)
	}
	if ct.OneSidedGets >= lt.OneSidedGets {
		t.Fatalf("batched gets %d not fewer than per-stripe %d", ct.OneSidedGets, lt.OneSidedGets)
	}
	if ct.OneSidedMsgs > lt.OneSidedMsgs {
		t.Fatalf("batched regions %d exceed per-stripe %d", ct.OneSidedMsgs, lt.OneSidedMsgs)
	}
	// The twin really is per-stripe: one get per non-empty async stripe.
	if lt.OneSidedGets != twinPrep.Stats.AsyncStripes {
		t.Fatalf("per-stripe twin issued %d gets for %d async stripes", lt.OneSidedGets, twinPrep.Stats.AsyncStripes)
	}
	if cold.RowCache.Hits != 0 {
		t.Fatalf("cold run had %d cache hits", cold.RowCache.Hits)
	}

	warm, err := Exec(batchedPrep, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wt := warm.TotalTransfer
	if !warm.C.AlmostEqual(want, 1e-9) {
		t.Fatal("warm run diverged from the reference kernel")
	}
	if warm.RowCache.Hits == 0 {
		t.Fatal("warm run on the same Prep and B must hit the cache")
	}
	if wt.OneSidedBytes >= ct.OneSidedBytes {
		t.Fatalf("warm bytes %d not below cold %d", wt.OneSidedBytes, ct.OneSidedBytes)
	}
	if warm.RowCache.SavedBytes != warm.RowCache.Hits*8*int64(batchedPrep.Params.K) {
		t.Fatalf("SavedBytes %d inconsistent with %d hits", warm.RowCache.SavedBytes, warm.RowCache.Hits)
	}
}

func TestAsyncBatchEstimate(t *testing.T) {
	params, err := basicParams(4, 8, 8).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rows int64) []model.StripeInfo {
		return []model.StripeInfo{{NNZ: 10, RowsNeeded: rows}}
	}
	perStripe := params
	perStripe.MaxBatchBytes = 1
	if got := asyncBatchEstimate(mk(100), perStripe); got != 1 {
		t.Fatalf("per-stripe estimate = %v, want 1", got)
	}
	if got := asyncBatchEstimate(nil, params); got != 1 {
		t.Fatalf("empty estimate = %v, want 1", got)
	}
	// Huge stripes: no batching headroom.
	if got := asyncBatchEstimate(mk(params.MaxBatchBytes/(8*8)+1), params); got != 1 {
		t.Fatalf("oversized stripes estimate = %v, want 1", got)
	}
	// Tiny stripes: clamped at 16.
	if got := asyncBatchEstimate(mk(1), params); got != 16 {
		t.Fatalf("tiny stripes estimate = %v, want clamp at 16", got)
	}
}

func TestCoalesceGapBoundaries(t *testing.T) {
	const k = 4
	// maxGap 0: even adjacent columns stay separate regions.
	regions, _, fetched := coalesceRegionsInto(nil, nil, []int32{2, 3, 4}, 0, 0, k)
	if len(regions) != 3 || fetched != 3 {
		t.Fatalf("maxGap 0: %d regions, %d rows; want 3 and 3", len(regions), fetched)
	}
	// Gap exactly equal to maxGap merges (and fetches the gap rows).
	regions, _, fetched = coalesceRegionsInto(nil, nil, []int32{2, 5}, 3, 0, k)
	if len(regions) != 1 || fetched != 4 {
		t.Fatalf("gap == maxGap: %d regions, %d rows; want 1 and 4", len(regions), fetched)
	}
	// One past maxGap does not.
	regions, _, fetched = coalesceRegionsInto(nil, nil, []int32{2, 6}, 3, 0, k)
	if len(regions) != 2 || fetched != 2 {
		t.Fatalf("gap == maxGap+1: %d regions, %d rows; want 2 and 2", len(regions), fetched)
	}
}
