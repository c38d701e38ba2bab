package core

import (
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"twoface/internal/atomicfloat"
	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/kernels"
	"twoface/internal/obs"
)

// Executor metrics, registered on the default registry and inert until it is
// enabled (obs.Default.SetEnabled). Granularity is per stripe / per panel /
// per get — never per nonzero — so even when enabled the cost is a handful
// of atomic operations per work unit.
var (
	metricAsyncStripes  = obs.Default.Counter("exec.async.stripes")
	metricSyncPanels    = obs.Default.Counter("exec.sync.panels")
	metricQueueDepth    = obs.Default.Histogram("exec.async.queue_depth", obs.ExpBuckets(1, 2, 16))
	metricStripeSeconds = obs.Default.Histogram("exec.async.stripe_seconds", obs.ExpBuckets(1e-8, 4, 18))
	metricPanelSeconds  = obs.Default.Histogram("exec.sync.panel_seconds", obs.ExpBuckets(1e-8, 4, 18))
	metricRegionsPerGet = obs.Default.Histogram("exec.async.regions_per_get", obs.ExpBuckets(1, 2, 16))
	metricRegionElems   = obs.Default.Histogram("exec.async.region_elems", obs.ExpBuckets(8, 4, 14))
	metricPoolAsyncGet  = obs.Default.Counter("core.pool.async.get")
	metricPoolPanelGet  = obs.Default.Counter("core.pool.panel.get")
	metricPoolRecvGet   = obs.Default.Counter("core.pool.recv.get")
	metricDegradations  = obs.Default.Counter("exec.async.degradations")
)

// ExecOptions controls the real goroutine parallelism of one node's
// execution. These affect wall-clock time only; the modeled (virtual) time
// uses the thread counts in Params, which default to the paper's Table 2.
type ExecOptions struct {
	// AsyncWorkers is the number of goroutines draining the async stripe
	// queue per node (the paper's 2 async communication threads). Default 2.
	AsyncWorkers int
	// SyncWorkers is the number of goroutines draining the row-panel queue
	// per node. Default 4 (scaled down from the paper's 120 to suit a
	// single-host simulation).
	SyncWorkers int
	// SkipCompute runs the algorithm in timing-only mode: all transfers,
	// queues, and virtual-time charges happen exactly as in a full run, but
	// the floating-point accumulation loops are skipped and C is left zero.
	// The experiment harness uses this to regenerate the paper's figures
	// quickly on modest hosts; correctness is established separately by the
	// test suite, and modeled time is independent of the arithmetic.
	SkipCompute bool

	// SampleKeep, when in (0, 1), runs a sampled SpMM (paper section 5.4):
	// each nonzero survives with this probability under the deterministic
	// mask SampleMask(row, col, SampleSeed, SampleKeep). The offline stripe
	// classification and all transfers are unchanged; computation skips
	// masked entries. 0 or 1 disables sampling.
	SampleKeep float64
	// SampleSeed selects the sample (one value per training iteration).
	SampleSeed uint64

	// CheckpointInterval is the virtual-time cadence (seconds) between
	// crash-recovery checkpoint writes. It only takes effect when the
	// cluster has recovery enabled (cluster.SetRecovery); <= 0 selects an
	// automatic cadence of defaultCheckpointCadence checkpoint costs, which
	// bounds checkpoint overhead to ~1/defaultCheckpointCadence of runtime
	// regardless of machine scale. See DESIGN.md section 12.
	CheckpointInterval float64
}

func (o ExecOptions) sampling() sampling {
	return sampling{active: o.SampleKeep > 0 && o.SampleKeep < 1, keep: o.SampleKeep, seed: o.SampleSeed}
}

func (o ExecOptions) normalize() ExecOptions {
	if o.AsyncWorkers < 1 {
		o.AsyncWorkers = 2
	}
	if o.SyncWorkers < 1 {
		o.SyncWorkers = 4
	}
	return o
}

// Result is the outcome of one distributed SpMM.
type Result struct {
	// C is the assembled output matrix (NumRows x K).
	C *dense.Matrix
	// Breakdowns holds each node's modeled time ledger (Figure 10).
	Breakdowns []cluster.Breakdown
	// ModeledSeconds is the cluster makespan under the virtual-time model —
	// or, when Measured is set, the maximum measured rank time.
	ModeledSeconds float64
	// Measured reports that the cluster ran on a wall-clock transport: the
	// breakdown ledgers hold measured elapsed seconds (attributed to the
	// same categories, best-effort under concurrency) instead of modeled
	// virtual time, and only the transport's local ranks carry charges.
	Measured bool
	// Wall is the wall-clock duration of the simulated run. It measures
	// this host, not the modeled machine.
	Wall time.Duration
	// Transfer holds each rank's data-movement counters for this run, and
	// TotalTransfer their cluster-wide sum (Table 5's accounting).
	Transfer      []cluster.TransferStats
	TotalTransfer cluster.TransferStats
	// TraceEvents and TraceDropped carry the transfer trace when the
	// cluster had tracing enabled: all ranks' events in rank-major order,
	// and the number of events each rank dropped to its buffer cap.
	TraceEvents  []cluster.Event
	TraceDropped []int64
	// Resilience holds each rank's fault-handling counters (retries,
	// backoff time, degradations) and TotalResilience their cluster-wide
	// sum. All zero on a healthy cluster.
	Resilience      []cluster.ResilienceStats
	TotalResilience cluster.ResilienceStats
	// RowCache summarizes the remote-row cache's traffic during this run
	// (all zero with the cache disabled; hits require a prior run on the
	// same Prep and B — see DESIGN.md section 8).
	RowCache RowCacheStats
}

// FillObservability populates the transfer counters and (when tracing is
// on) the transfer-trace view of a finished run, and publishes straggler
// gauges when the metrics registry is live. The executors and baselines
// call it after every run.
func (res *Result) FillObservability(clu *cluster.Cluster) {
	res.Transfer = clu.TransferStats()
	res.TotalTransfer = clu.TotalTransfer()
	res.Resilience = clu.ResilienceStats()
	res.TotalResilience = clu.TotalResilience()
	if clu.TraceEnabled() {
		events, dropped := clu.TraceByRank()
		for _, ev := range events {
			res.TraceEvents = append(res.TraceEvents, ev...)
		}
		res.TraceDropped = dropped
	}
	if obs.Default.Enabled() {
		obs.RecordSkew(obs.Default, res.Breakdowns)
		obs.RecordOverlap(obs.Default, res.Breakdowns)
		obs.RecordResilience(obs.Default, res.TotalResilience)
	}
	logRun(res)
}

// logRun emits the run-completion log record: makespan, wall time, the
// straggler rank, and (when faults fired) the resilience counters. The
// process logger discards by default, so un-instrumented runs pay one
// level check here.
func logRun(res *Result) {
	l := obs.Logger()
	if !l.Enabled(nil, slog.LevelInfo) {
		return
	}
	straggler, max := 0, 0.0
	for i, bd := range res.Breakdowns {
		if t := bd.NodeTime(); t > max {
			straggler, max = i, t
		}
	}
	attrs := []any{
		"event", "run.complete",
		"modeled_s", res.ModeledSeconds,
		"wall_s", res.Wall.Seconds(),
		"ranks", len(res.Breakdowns),
		"straggler", straggler,
	}
	if rs := res.TotalResilience; rs.Faulted() {
		attrs = append(attrs,
			"get_retries", rs.GetRetries,
			"degradations", rs.Degradations,
			"leg_retries", rs.LegRetries,
			"backoff_s", rs.BackoffSeconds,
		)
		if rs.Crashes > 0 || rs.Checkpoints > 0 {
			attrs = append(attrs,
				"crashes", rs.Crashes,
				"checkpoints", rs.Checkpoints,
				"recovered_stripes", rs.RecoveredStripes,
				"recovered_panels", rs.RecoveredPanels,
				"refetched_elems", rs.RefetchedElems,
				"recovery_s", rs.RecoverySeconds,
			)
		}
	}
	l.Info("run complete", attrs...)
}

// liveOutput is the run's C, which is its own accumulator. The paper puts
// atomics on C because "some threads operating on asynchronous stripes may
// also be writing to the same rows of C" (Algorithms 2-3), so they apply
// exactly where that premise holds: a row that async stripes also write (see
// NodePart.sharedRows) is updated through the CAS view, and a row whose only
// writer is its one sync panel run is summed in place through plain.
type liveOutput struct {
	*atomicfloat.Slice           // CAS view over c
	c                  []float64 // the returned matrix's storage
}

func newLiveOutput(c *dense.Matrix) *liveOutput {
	return &liveOutput{Slice: atomicfloat.View(c.Data), c: c.Data}
}

func (o *liveOutput) plain() []float64 { return o.c }

// Exec runs Two-Face (Algorithm 1) for C = A x B on the given cluster using
// preprocessed state. B must have prep.Layout.NumCols rows and prep.Params.K
// columns; the cluster must have prep.Params.P nodes. The cluster's clocks
// are reset at entry.
func Exec(prep *Prep, b *dense.Matrix, clu *cluster.Cluster, opts ExecOptions) (*Result, error) {
	params := prep.Params
	if b.Rows != int(prep.Layout.NumCols) || b.Cols != params.K {
		return nil, fmt.Errorf("core: B is %dx%d, want %dx%d", b.Rows, b.Cols, prep.Layout.NumCols, params.K)
	}
	if clu.P() != params.P {
		return nil, fmt.Errorf("core: cluster has %d nodes, prep expects %d", clu.P(), params.P)
	}
	opts = opts.normalize()
	clu.Reset()

	c := dense.New(int(prep.Layout.NumRows), params.K)
	out := newLiveOutput(c)
	caches := prep.attachRowCaches(b)
	rec := &recoveryCoordinator{}
	start := time.Now()
	runErr := clu.Run(func(r *cluster.Rank) error {
		return execNode(prep, b, r, out, opts, caches, rec)
	})
	if runErr != nil {
		return nil, runErr
	}
	wall := time.Since(start)

	res := &Result{
		C:              c,
		Breakdowns:     clu.Breakdowns(),
		ModeledSeconds: clu.TotalTime(),
		Wall:           wall,
		Measured:       clu.WallClock(),
	}
	for _, rc := range caches {
		rc.mu.Lock()
		res.RowCache.Hits += rc.hits
		res.RowCache.Misses += rc.misses
		res.RowCache.SavedBytes += 8 * rc.savedElems
		rc.mu.Unlock()
	}
	res.FillObservability(clu)
	return res, nil
}

// beginNode is the prologue every rank runs, doomed or not: expose this
// node's B block as a one-sided window, fence, and charge "Other" — the
// per-stripe setup of MPI structures (Figure 10's residual category):
// stripes received, async stripes issued, multicasts rooted.
func beginNode(prep *Prep, b *dense.Matrix, r *cluster.Rank, np *NodePart) error {
	layout := prep.Layout
	net := r.Net()
	colBlock := layout.ColBlock(r.ID)
	r.Expose("B", b.RowRange(colBlock.Lo, colBlock.Hi))
	if err := r.Barrier(); err != nil {
		return err
	}
	rooted := 0
	lo, hi := layout.NodeStripeRange(r.ID)
	for sid := lo; sid < hi; sid++ {
		if len(prep.Dests[sid]) > 0 {
			rooted++
		}
	}
	r.ChargeOp(cluster.Other, "setup", net.SetupBase+net.SetupPerStripe*float64(len(np.RecvStripes)+np.Async.NumStripes()+rooted))
	return nil
}

// execNode is Algorithm 1 for one node. A rank whose fault plan dooms it to
// crash runs the serialized checkpointing variant instead, so the set of
// units its last checkpoint covers is deterministic (see execNodeDoomed).
func execNode(prep *Prep, b *dense.Matrix, r *cluster.Rank, out *liveOutput, opts ExecOptions, caches []*rowCache, rec *recoveryCoordinator) error {
	if r.RecoveryEnabled() && !math.IsInf(r.CrashTime(), 1) {
		return execNodeDoomed(prep, b, r, out, opts, rec)
	}
	layout, params := prep.Layout, prep.Params
	np := &prep.Nodes[r.ID]
	k := params.K
	if err := beginNode(prep, b, r, np); err != nil {
		return err
	}

	recvBufs := make([][]float64, layout.NumStripes())
	metricPoolRecvGet.Inc()
	arena := recvArenaPool.Get().(*recvArena)
	defer recvArenaPool.Put(arena) // all return paths join the goroutines first
	pl := newSyncPipeline(len(np.RecvStripes))
	var wg sync.WaitGroup

	// Thread 0: synchronous dense-stripe transfers (Algorithm 1 lines 5-8).
	// Each stripe is published through its gate as it lands, so panel workers
	// block per stripe, not on a whole-phase flag.
	var syncErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		syncErr = syncTransfers(prep, r, np, recvBufs, arena, k, pl, nil)
	}()

	// Asynchronous threads (Algorithm 1 lines 9-14): drain the stripe queue
	// in owner-batches — one aggregated GetIndexed per run of consecutive
	// same-owner stripes.
	var asyncErr error
	var asyncMu sync.Mutex
	var asyncCursor atomic.Int64
	batches := buildAsyncSchedule(layout, np, k, params.MaxBatchBytes, nil)
	nWork := int64(len(batches))
	var cache *rowCache
	if caches != nil {
		cache = caches[r.ID]
	}
	wg.Add(opts.AsyncWorkers)
	for w := 0; w < opts.AsyncWorkers; w++ {
		go func() {
			defer wg.Done()
			metricPoolAsyncGet.Inc()
			ws := asyncScratchPool.Get().(*asyncScratch)
			defer asyncScratchPool.Put(ws)
			for {
				n := asyncCursor.Add(1) - 1
				if n >= nWork {
					return
				}
				if obs.Default.Enabled() {
					metricQueueDepth.Observe(float64(nWork - n))
				}
				if err := processAsyncBatch(prep, b, r, np, out, ws, batches[n], cache, opts.SkipCompute, opts.sampling()); err != nil {
					asyncMu.Lock()
					if asyncErr == nil {
						asyncErr = err
					}
					asyncMu.Unlock()
					return
				}
			}
		}()
	}

	// Row panels (Algorithm 1 lines 15-19). The panel workers start
	// immediately: each panel blocks only on the gate of its latest-arriving
	// stripe dependency, so panel compute overlaps the multicasts still in
	// flight.
	nPanels := np.Sync.NumPanels()
	deps := np.deps(layout)
	panelCost := make([]float64, nPanels)
	var panelCursor atomic.Int64
	resolver := makeRowResolver(prep, b, r.ID, recvBufs, k)
	var panelWg sync.WaitGroup
	var panelErr error
	var panelMu sync.Mutex
	setPanelErr := func(err error) {
		panelMu.Lock()
		if panelErr == nil {
			panelErr = err
		}
		panelMu.Unlock()
	}
	panelWg.Add(opts.SyncWorkers)
	for w := 0; w < opts.SyncWorkers; w++ {
		go func() {
			defer panelWg.Done()
			metricPoolPanelGet.Inc()
			ws := panelScratchPool.Get().(*panelScratch)
			defer func() {
				ws.release() // drop B/arena row references before pooling
				panelScratchPool.Put(ws)
			}()
			for {
				n := panelCursor.Add(1) - 1
				if n >= int64(nPanels) {
					return
				}
				pi := int(deps.order[n])
				if rel := deps.release[pi]; rel >= 0 {
					g := &pl.gates[rel]
					<-g.ready
					if g.err != nil {
						setPanelErr(g.err)
						return
					}
				}
				metricSyncPanels.Inc()
				cost, err := processSyncRowPanel(prep, r, np, out, resolver, ws, pi, opts.SkipCompute, opts.sampling())
				if err != nil {
					setPanelErr(err)
					return
				}
				panelCost[pi] = cost
			}
		}()
	}
	panelWg.Wait()
	wg.Wait()
	if syncErr != nil {
		return syncErr
	}
	if asyncErr != nil {
		return asyncErr
	}
	if panelErr != nil {
		return panelErr
	}
	if ov := pipelineOverlap(pl, deps, panelCost); ov > 0 {
		r.ChargeOp(cluster.Overlap, "sync.overlap", ov)
	}
	// Checkpoint accounting for a rank that survives to the end: its cadenced
	// snapshots happened alongside the run, charged here as one lump since
	// nothing ever restores from them (only a doomed rank's cuts matter).
	chargeHealthyCheckpoints(r, np, k, opts)
	r.Instant("epilogue.flush")
	if err := r.Barrier(); err != nil {
		return err
	}
	// The barrier above is the recovery fence: every doomed rank has either
	// passed it (it outran its crash time) or left it by dying, so the death
	// list is final and identical across survivors.
	return runRecoveryPhase(prep, b, r, out, opts, rec)
}

// stripeGate publishes one received dense stripe to the panel workers: the
// sync thread closes ready only after the stripe's buffer is in recvBufs
// (or after a failure, with err written first), and waiters observe err
// before touching the buffer.
type stripeGate struct {
	ready chan struct{}
	err   error
}

// syncPipeline is the per-run state of the pipelined collective path: one
// gate per received stripe (np.RecvStripes order), each stripe's arrival
// time, and the final value of the sync thread's local comm clock. Arrival
// times accumulate locally applied charges — never reads of the shared
// SyncComm ledger, which async workers may concurrently advance with
// degradation re-fetches — so the overlap accounting is deterministic under
// any goroutine interleaving.
type syncPipeline struct {
	gates     []stripeGate
	arrivals  []float64
	commTotal float64
}

func newSyncPipeline(n int) *syncPipeline {
	pl := &syncPipeline{gates: make([]stripeGate, n), arrivals: make([]float64, n)}
	for i := range pl.gates {
		pl.gates[i].ready = make(chan struct{})
	}
	return pl
}

// publish marks the stripe at RecvStripes position i arrived at local sync
// time at.
func (pl *syncPipeline) publish(i int, at float64) {
	pl.arrivals[i] = at
	close(pl.gates[i].ready)
}

// abort closes every not-yet-published gate with err, so panel workers
// blocked on stripes that will never arrive fail fast instead of hanging
// the rank — which would keep the rank's error from ever reaching the
// cluster's abort path and deadlock the surviving ranks in the final
// barrier.
func (pl *syncPipeline) abort(from int, err error) {
	for i := from; i < len(pl.gates); i++ {
		pl.gates[i].err = err
		close(pl.gates[i].ready)
	}
}

// pipelineOverlap computes the sync-half seconds hidden by pipelining. The
// panels form one serialized compute stream (SyncComputeCost already
// spreads each panel across the model's sync threads) whose units release
// at their latest dependency's arrival on the sync thread's local comm
// clock; walking them in release order yields the optimal single-stream
// list schedule. The pipelined sync half is max(schedule makespan,
// commTotal) — the sync thread itself stays busy through commTotal — so the
// overlap credit, serial sum minus pipelined makespan, lands in
// [0, min(commTotal, compTotal)] by construction: NodeTime is never worse
// than the serial accounting, and SyncOverlap <= min(SyncComm, SyncComp).
func pipelineOverlap(pl *syncPipeline, deps *panelDeps, panelCost []float64) float64 {
	var t, compTotal float64
	for _, pi := range deps.order {
		if rel := deps.release[pi]; rel >= 0 && pl.arrivals[rel] > t {
			t = pl.arrivals[rel]
		}
		t += panelCost[pi]
		compTotal += panelCost[pi]
	}
	makespan := t
	if pl.commTotal > makespan {
		makespan = pl.commTotal
	}
	return pl.commTotal + compTotal - makespan
}

// syncTransfers receives every dense stripe this node needs through
// collective multicasts and charges both receiver-side and (for stripes this
// node roots) root-side collective time. Receive buffers are sliced out of
// the caller's arena, so steady-state runs allocate nothing here.
//
// Each stripe is published through its pipeline gate the moment it lands,
// stamped with the sync thread's local comm clock (applied charges only: root
// multicasts first, then per-stripe fault seconds and receive cost). A
// failure — a multicast leg past its retry budget, or a cluster abort —
// closes every remaining gate with the error before returning, so no panel
// worker can be left waiting on a stripe that will never arrive.
//
// boundary, when non-nil, runs after each root charge and each stripe's pull
// and charge — the points where a doomed rank ticks its checkpoint cadence
// and checks its crash clock — and stops the transfers by returning an error.
func syncTransfers(prep *Prep, r *cluster.Rank, np *NodePart, recvBufs [][]float64, arena *recvArena, k int, pl *syncPipeline, boundary func() error) (retErr error) {
	layout := prep.Layout
	net := r.Net()
	if boundary == nil {
		boundary = func() error { return nil }
	}
	published := 0
	defer func() {
		if retErr != nil {
			pl.abort(published, retErr)
		}
	}()

	// Root side: this node participates in the multicast tree of every
	// owned stripe that has destinations.
	var commClock float64
	lo, hi := layout.NodeStripeRange(r.ID)
	for sid := lo; sid < hi; sid++ {
		if n := len(prep.Dests[sid]); n > 0 {
			elems := int64(layout.StripeWidthOf(sid)) * int64(k)
			commClock += r.ChargeOpTimed(cluster.SyncComm, "multicast.root", net.MulticastCost(elems, n))
			if err := boundary(); err != nil {
				return err
			}
		}
	}

	// Receiver side: pull each needed dense stripe from its owner's window.
	var total int64
	for _, sid := range np.RecvStripes {
		colLo, colHi := layout.StripeCols(sid)
		total += int64(colHi-colLo) * int64(k)
	}
	buf := arena.grab(total)
	for i, sid := range np.RecvStripes {
		colLo, colHi := layout.StripeCols(sid)
		owner := layout.StripeOwner(sid)
		ownerBlock := layout.ColBlock(owner)
		elems := int64(colHi-colLo) * int64(k)
		dst := buf[:elems:elems]
		buf = buf[elems:]
		off := int64(colLo-int32(ownerBlock.Lo)) * int64(k)
		_, faultSeconds, err := r.MulticastPullTimed(owner, "B", off, elems, dst)
		if err != nil {
			return err
		}
		commClock += faultSeconds
		recvBufs[sid] = dst
		commClock += r.ChargeOpTimed(cluster.SyncComm, "multicast.recv", net.MulticastCost(elems, len(prep.Dests[sid])))
		pl.publish(i, commClock)
		published = i + 1
		if err := boundary(); err != nil {
			return err
		}
	}
	pl.commTotal = commClock
	return nil
}

// rowResolver returns the dense B row for a global column, either from the
// node's own block or from a received dense stripe.
type rowResolver func(col int32) ([]float64, error)

func makeRowResolver(prep *Prep, b *dense.Matrix, rank int, recvBufs [][]float64, k int) rowResolver {
	layout := prep.Layout
	own := layout.ColBlock(rank)
	return func(col int32) ([]float64, error) {
		if own.Contains(int(col)) {
			return b.Row(int(col)), nil
		}
		sid := layout.StripeOfCol(col)
		buf := recvBufs[sid]
		if buf == nil {
			return nil, fmt.Errorf("core: rank %d: dense stripe %d for column %d was never received", rank, sid, col)
		}
		colLo, _ := layout.StripeCols(sid)
		off := int(col-colLo) * k
		return buf[off : off+k], nil
	}
}

// processSyncRowPanel is Algorithm 2: multiply one row panel. A row only this
// panel writes is summed straight into C; a row that async stripes also write
// — and every row when out is a staged sink — is summed in a thread-local
// buffer and flushed with one atomic pass. Each of the panel's distinct
// columns is resolved to its dense B row once, into the workspace's flat
// slice table; the per-nonzero loop is then a table lookup plus a shared AXPY
// kernel, with no closure calls. It returns the panel's applied SyncComp
// charge for the pipeline's overlap accounting.
func processSyncRowPanel(prep *Prep, r *cluster.Rank, np *NodePart, out accumSink, resolve rowResolver, ws *panelScratch, n int, skipCompute bool, smp sampling) (float64, error) {
	params := prep.Params
	net := r.Net()
	k := params.K
	panel := np.Sync.Entries[np.Sync.PanelPtr[n]:np.Sync.PanelPtr[n+1]]
	if len(panel) == 0 {
		return 0, nil
	}
	if !skipCompute {
		ws.begin(int(prep.Layout.NumCols), k)
		base := int(np.RowLo) * k
		c := out.plain()
		var shared []bool
		if c != nil {
			shared = np.sharedRows()
		}
		for i := 0; i < len(panel); {
			row := panel[i].Row
			off := base + int(row)*k
			// C's row starts at +0 like the cleared buffer and takes the same
			// kernel calls in the same order, and a sum that starts at +0 never
			// becomes -0, so both destinations end up holding the same bits.
			inPlace := c != nil && !shared[row]
			acc := ws.acc
			if inPlace {
				acc = c[off : off+k]
			} else {
				clear(acc)
			}
			// Consecutive nonzeros of a row pair up through the dual-source tiled
			// kernel, keeping the accumulator tile in registers across both
			// multiply-adds; an unpaired leftover (odd count, or a gap forced by
			// sampling) flushes through plain Axpy. Axpy2 rounds exactly like the
			// two sequential Axpys it replaces, so the panel result is unchanged.
			var pendVal float64
			var pendRow []float64
			for ; i < len(panel) && panel[i].Row == row; i++ {
				e := panel[i]
				if smp.masked(np.RowLo+e.Row, e.Col) {
					continue
				}
				brow, err := ws.resolved(e.Col, resolve)
				if err != nil {
					return 0, err
				}
				if pendRow == nil {
					pendVal, pendRow = e.Val, brow
					continue
				}
				kernels.Axpy2(pendVal, pendRow, e.Val, brow, acc)
				pendRow = nil
			}
			if pendRow != nil {
				kernels.Axpy(pendVal, pendRow, acc)
			}
			if !inPlace {
				out.AddRange(off, acc)
			}
		}
	}
	kept := float64(len(panel)) * smp.computeScale()
	cost := r.ChargeOpTimed(cluster.SyncComp, "compute.sync.panel",
		net.SyncComputeCost(int64(kept), k, params.ModelSyncThreads))
	metricPanelSeconds.Observe(cost)
	return cost, nil
}
