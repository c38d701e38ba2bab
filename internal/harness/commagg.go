package harness

import (
	"fmt"
	"math"

	"twoface"
	"twoface/internal/gen"
)

// CommAggRow measures, for one registry matrix, what owner-batching the
// one-sided gets and the cross-run row cache buy over the seed accounting of
// one get per stripe. All byte/request numbers come from the cluster's honest
// transfer counters, not the cost model.
type CommAggRow struct {
	Matrix string `json:"matrix"`

	// Seed accounting: the per-stripe twin (see commAggRow) — one
	// GetIndexed per async stripe, AlphaA per region, no cache.
	LegacyGets    int64 `json:"legacy_gets"`
	LegacyRegions int64 `json:"legacy_regions"`
	LegacyBytes   int64 `json:"legacy_bytes"`

	// Batched path, first (cold-cache) run.
	BatchedGets    int64 `json:"batched_gets"`
	BatchedRegions int64 `json:"batched_regions"`
	ColdBytes      int64 `json:"cold_bytes"`

	// Batched path, second run on the same plan and dense input: the row
	// cache serves repeats, so gets and bytes drop further.
	WarmGets  int64 `json:"warm_gets"`
	WarmBytes int64 `json:"warm_bytes"`

	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	SavedBytes     int64   `json:"saved_bytes"`
	GetReduction   float64 `json:"get_reduction"`   // LegacyGets / BatchedGets
	WarmByteRatio  float64 `json:"warm_byte_ratio"` // WarmBytes / ColdBytes
	MaxRelDiff     float64 `json:"max_rel_diff"`    // batched C vs legacy C
	ResultsAgree   bool    `json:"results_agree"`   // MaxRelDiff <= 1e-9
	ModeledLegacy  float64 `json:"modeled_legacy_seconds"`
	ModeledBatched float64 `json:"modeled_batched_seconds"`

	// Overlap comparison on the warm run: pipelining changes only when panels
	// start, not what moves or what is charged per category, so the seed's
	// serial accounting is the run's own ledger with the SyncOverlap credit
	// zeroed, and OverlapGain = ModeledSerial / ModeledPipelined >= 1 by
	// construction (strictly > 1 wherever sync comm and sync compute coexist
	// on the straggler).
	ModeledPipelined float64 `json:"modeled_pipelined_seconds"` // warm run
	ModeledSerial    float64 `json:"modeled_serial_seconds"`    // warm run, SyncOverlap zeroed
	OverlapSeconds   float64 `json:"overlap_seconds"`           // cluster-wide SyncOverlap sum
	OverlapGain      float64 `json:"overlap_gain"`              // ModeledSerial / ModeledPipelined
}

// CommAggregation runs Two-Face on every registry matrix three ways — seed
// per-stripe accounting, batched cold-cache, batched warm-cache — and reports
// the request/byte deltas. This is the headline evidence for the aggregation
// scheduler: same fetched rows, a fraction of the requests, and repeat runs
// served partly from the cache.
func (c Config) CommAggregation(k int) ([]CommAggRow, *Table, error) {
	cc := c.normalize()
	rows := make([]CommAggRow, 0, len(gen.Specs()))
	cols := []string{"legacy gets", "batched gets", "get redux", "warm bytes/cold", "cache hit%", "overlap gain"}
	t := NewTable(fmt.Sprintf("Extension: one-sided aggregation and row cache, K=%d, p=%d", k, cc.Nodes),
		MatrixNames(), cols)
	for i, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		row, err := cc.commAggRow(w, k)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.Short, err)
		}
		row.Matrix = s.Short
		rows = append(rows, row)
		t.Set(i, 0, float64(row.LegacyGets), "%.0f")
		t.Set(i, 1, float64(row.BatchedGets), "%.0f")
		t.Set(i, 2, row.GetReduction, "%.2fx")
		t.Set(i, 3, row.WarmByteRatio, "%.3f")
		t.Set(i, 4, 100*row.CacheHitRate, "%.0f%%")
		t.Set(i, 5, row.OverlapGain, "%.3fx")
	}
	t.Note = "Legacy issues one one-sided get per async stripe; the batched path aggregates consecutive same-owner stripes into single requests (get redux = legacy/batched) and a per-rank row cache serves repeat runs (warm bytes/cold < 1). Overlap gain is the serial-sync makespan over the pipelined one (multicasts overlapped with panel compute), never below 1x."
	return rows, t, nil
}

// commAggRow measures one matrix. Arithmetic stays on so the per-stripe and
// batched results can be compared element-wise.
func (c Config) commAggRow(w *Workload, k int) (CommAggRow, error) {
	cc := c.normalize()
	var row CommAggRow
	b := w.B(k)
	opts := cc.options(w, k, cc.Nodes)
	opts.TimingOnly = false

	// The seed accounting as settings of the one executor path: every async
	// stripe in a get of its own, no row cache, and each region charged the
	// full per-request overhead.
	legacy := opts
	net := *opts.Net
	net.RegionAlpha = net.AlphaA
	legacy.Net = &net
	legacy.MaxAsyncBatchBytes = 1
	legacy.RowCacheElems = -1
	legacyRes, err := twoface.Multiply(w.A, b, legacy)
	if err != nil {
		return row, err
	}
	lt := legacyRes.TotalTransfer
	row.LegacyGets, row.LegacyRegions, row.LegacyBytes = lt.OneSidedGets, lt.OneSidedMsgs, lt.OneSidedBytes
	row.ModeledLegacy = legacyRes.ModeledSeconds

	// One plan, two runs: the first is cold, the second hits the row cache
	// (per-run counters reset at each Multiply).
	sys, err := twoface.New(opts)
	if err != nil {
		return row, err
	}
	plan, err := sys.Preprocess(w.A)
	if err != nil {
		return row, err
	}
	cold, err := plan.Multiply(b)
	if err != nil {
		return row, err
	}
	ct := cold.TotalTransfer
	row.BatchedGets, row.BatchedRegions, row.ColdBytes = ct.OneSidedGets, ct.OneSidedMsgs, ct.OneSidedBytes
	row.ModeledBatched = cold.ModeledSeconds

	warm, err := plan.Multiply(b)
	if err != nil {
		return row, err
	}
	wt := warm.TotalTransfer
	row.WarmGets, row.WarmBytes = wt.OneSidedGets, wt.OneSidedBytes
	row.CacheHits, row.CacheMisses = warm.RowCache.Hits, warm.RowCache.Misses
	row.CacheHitRate = warm.RowCache.HitRate()
	row.SavedBytes = warm.RowCache.SavedBytes

	row.ModeledPipelined = warm.ModeledSeconds
	for _, bd := range warm.Breakdowns {
		row.OverlapSeconds += bd.SyncOverlap
		bd.SyncOverlap = 0
		row.ModeledSerial = math.Max(row.ModeledSerial, bd.NodeTime())
	}
	if row.ModeledPipelined > 0 {
		row.OverlapGain = row.ModeledSerial / row.ModeledPipelined
	}

	if row.BatchedGets > 0 {
		row.GetReduction = float64(row.LegacyGets) / float64(row.BatchedGets)
	} else if row.LegacyGets == 0 {
		row.GetReduction = 1
	}
	if row.ColdBytes > 0 {
		row.WarmByteRatio = float64(row.WarmBytes) / float64(row.ColdBytes)
	} else {
		row.WarmByteRatio = 1
	}
	row.MaxRelDiff = maxRelDiff(legacyRes.C.Data, cold.C.Data)
	row.ResultsAgree = row.MaxRelDiff <= 1e-9
	return row, nil
}

// maxRelDiff returns the maximum per-element relative difference.
func maxRelDiff(a, b []float64) float64 {
	var maxRel float64
	for i, v := range a {
		wv := b[i]
		if v == wv {
			continue
		}
		rel := math.Abs(v-wv) / math.Max(math.Max(math.Abs(v), math.Abs(wv)), 1)
		if rel > maxRel {
			maxRel = rel
		}
	}
	return maxRel
}
