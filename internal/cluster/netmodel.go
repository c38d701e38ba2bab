// Package cluster is the distributed-runtime substrate of this repository:
// a stand-in for the MPI + interconnect stack of the paper's evaluation
// platform (OpenMPI/UCX over a Cray Slingshot network on NCSA Delta).
//
// It provides two things:
//
//  1. Real message-passing mechanics. P "nodes" run as goroutines inside one
//     process. Collectives (multicast, allgather, cyclic shifts) and
//     one-sided indexed gets (the MPI_Rget + MPI_Type_indexed pattern) move
//     actual float64 data, so every distributed algorithm computes real,
//     verifiable results.
//
//  2. A virtual-time network model. Wall-clock time inside a single-host
//     simulation says nothing about a 4096-core supercomputer, so each node
//     carries a virtual clock, split into the categories of the paper's
//     Figure 10 (synchronous/asynchronous x communication/computation, plus
//     Other). Transfer mechanics report element counts; algorithms convert
//     them to seconds through NetModel and charge the appropriate category.
//
// The separation of mechanics (what moved) from model (what it cost) is
// deliberate: the paper's preprocessing model is *calibrated against* the
// machine, so the machine's true parameters must live somewhere the
// classifier cannot see.
package cluster

import "math"

// NetModel is the machine-truth performance model of the simulated cluster.
// The default values are derived from the paper's Table 3, which reports
// the coefficients measured (by linear regression) on NCSA Delta. Costs are
// expressed per float64 element, matching the paper's convention.
type NetModel struct {
	// AlphaS is the per-message software/latency overhead of a synchronous
	// (collective) transfer step, in seconds.
	AlphaS float64
	// BetaS is the per-element transfer cost of collective communication
	// (inverse effective bandwidth), in seconds per float64.
	BetaS float64
	// AlphaA is the per-request overhead of a one-sided get. It is ~7.5x
	// AlphaS on Delta: fine-grained RDMA pays library and round-trip costs
	// per region.
	AlphaA float64
	// BetaA is the per-element transfer cost of one-sided communication.
	// Paper section 6.2: BetaA/BetaS ~ 18.5.
	BetaA float64
	// RegionAlpha is the marginal per-region cost of adding one more indexed
	// region to an *already issued* one-sided request (OneSidedBatchCost).
	// AlphaA bundles request setup, library call, and network round trip;
	// once a request is in flight, each extra MPI_Type_indexed region only
	// pays descriptor build and target-side gather, which is why aggregating
	// the regions of many stripes into one get amortizes the dominant AlphaA.
	// Default: AlphaA/8.
	RegionAlpha float64

	// GammaCore is the compute cost per (nonzero x dense column) on a single
	// thread for the row-major synchronous kernel, in seconds. 1.2e-9
	// corresponds to a memory-bound streaming SpMM (~1.7 GFLOP/s/core),
	// which keeps the bulk-synchronous baselines communication-bound at the
	// default node count (Figure 10) while making single-node runs
	// compute-bound, as in the strong-scaling study (Figure 11).
	GammaCore float64
	// AsyncPenalty multiplies GammaCore for the column-major asynchronous
	// kernel, which cannot buffer output rows and pays one atomic per
	// nonzero (paper section 4.1). The effective async compute coefficient
	// is gamma_A = GammaCore * AsyncPenalty / asyncCompThreads. Note: the
	// paper's Table 3 reports gamma_A = 2.07e-8 as fitted on its testbed;
	// that value is inconsistent with the paper's own Figure 2 (it would
	// make Async Fine unable to win on queen/web by two orders of
	// magnitude), so this simulator uses a machine truth of gamma_A = 6e-10
	// under which the paper's qualitative results are self-consistent.
	AsyncPenalty float64
	// KappaStripe is the extra per-stripe software overhead of asynchronous
	// computation (the paper's kappa_A).
	KappaStripe float64
	// SetupPerStripe models the "Other" category of Figure 10: per-stripe
	// initialization of MPI datatypes and request structures.
	SetupPerStripe float64
	// TargetContention is the fraction of each one-sided transfer's cost
	// additionally charged to the *target* node. Real RDMA targets are
	// passive in software but their NIC and memory bandwidth are consumed —
	// the paper's stated reason for limiting async communication threads
	// ("a large number of one-sided transfers results in high resource
	// contention", section 6.2). 0 (the default) reproduces the paper's
	// purely origin-side accounting; the ablation bench explores >0.
	TargetContention float64
	// SetupBase is the fixed per-node setup cost of one distributed SpMM
	// (window creation, communicator setup — the bulk of Figure 10's
	// "Other"). It puts a floor under every algorithm's time, which is what
	// keeps speedups on small, highly local matrices (queen) from growing
	// unboundedly.
	SetupBase float64
	// CheckpointAlpha is the fixed per-checkpoint cost of snapshotting a
	// rank's C-panel accumulator and progress cursors to node-local durable
	// storage (file open, metadata sync), in seconds. Charged to the
	// Checkpoint category only when crash recovery is enabled.
	CheckpointAlpha float64
	// CheckpointBeta is the per-element cost of a checkpoint write — the
	// inverse bandwidth of streaming the C block to local NVMe (~8 GB/s for
	// 8-byte float64 elements at the default).
	CheckpointBeta float64
}

// Default returns the NetModel matching the paper's measured Delta
// coefficients (Table 3 plus the thread-count conventions of Table 2).
func Default() NetModel {
	return NetModel{
		AlphaS:          1.36e-6,
		BetaS:           1.95e-10,
		AlphaA:          1.02e-5,
		BetaA:           3.61e-9,
		RegionAlpha:     1.275e-6, // AlphaA/8
		GammaCore:       1.2e-9,
		AsyncPenalty:    4, // gamma_A = 1.2e-9 * 4 / 8 threads = 6e-10 per nnz*K
		KappaStripe:     8.72e-9,
		SetupPerStripe:  2e-6,
		SetupBase:       8e-3,
		CheckpointAlpha: 5e-4,
		CheckpointBeta:  1.25e-10, // ~8 GB/s local NVMe per float64
	}
}

// Scaled returns the model of a 1/f-scale machine: per-message and
// per-stripe fixed overheads shrink by f while per-element and per-nonzero
// costs are unchanged. This keeps the ratio of fixed overhead to payload
// invariant when this repository's evaluation runs matrices (and stripe
// widths) scaled down by f from the paper's, so the classifier faces the
// same trade-offs the paper's machine poses at full scale.
func (n NetModel) Scaled(f float64) NetModel {
	if f <= 0 {
		panic("cluster: scale factor must be positive")
	}
	n.AlphaS /= f
	n.AlphaA /= f
	n.RegionAlpha /= f
	n.KappaStripe /= f
	n.SetupPerStripe /= f
	n.SetupBase /= f
	n.CheckpointAlpha /= f
	return n
}

// MulticastCost returns the per-participant cost of a multicast of elems
// float64 values to ndests destination nodes. Large-message broadcasts use
// pipelined scatter-allgather (van de Geijn), moving ~2x the payload past
// every participant regardless of fan-out, while the latency term pays one
// tree stage per level: AlphaS*ceil(log2(ndests+1)) + 2*BetaS*elems. A
// single destination degenerates to a point-to-point send (1x payload).
// The extra payload factor and the latency stages are what make the very
// wide multicasts of twitter/friendster costly next to dense shifting's
// point-to-point rotation (paper section 7.2, mean fan-out 35.7 and 43.5).
func (n NetModel) MulticastCost(elems int64, ndests int) float64 {
	if ndests <= 0 {
		return 0
	}
	stages := math.Ceil(math.Log2(float64(ndests) + 1))
	payload := 2.0
	if ndests == 1 {
		payload = 1.0
	}
	return n.AlphaS*stages + payload*n.BetaS*float64(elems)
}

// SendrecvCost returns the cost of one cyclic-shift step exchanging elems
// elements in each direction (send and receive overlap on full-duplex
// links, so the exchange costs one transfer).
func (n NetModel) SendrecvCost(elems int64) float64 {
	return n.AlphaS + n.BetaS*float64(elems)
}

// AllgatherCost returns the per-node cost of a ring allgather across p
// nodes where each node contributes blockElems elements: p-1 steps, each a
// block exchange.
func (n NetModel) AllgatherCost(p int, blockElems int64) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1) * (n.AlphaS + n.BetaS*float64(blockElems))
}

// OneSidedCost returns the origin-side cost of a one-sided indexed get of
// `regions` contiguous regions totalling elems elements. The target is
// passive and is charged nothing (paper section 2.3).
func (n NetModel) OneSidedCost(regions int, elems int64) float64 {
	if regions <= 0 {
		return 0
	}
	return n.AlphaA*float64(regions) + n.BetaA*float64(elems)
}

// OneSidedBatchCost returns the origin-side cost of one *aggregated*
// one-sided get carrying `regions` indexed regions totalling elems elements:
// the full per-request overhead AlphaA is paid once, and each additional
// region pays only the marginal RegionAlpha. With one region it equals
// OneSidedCost; with many it is strictly cheaper, which is the modeled win
// of the owner-batched scheduler. Setting RegionAlpha = AlphaA makes the two
// agree for any region count — the seed's per-region accounting.
func (n NetModel) OneSidedBatchCost(regions int, elems int64) float64 {
	if regions <= 0 {
		return 0
	}
	return n.AlphaA + n.RegionAlpha*float64(regions-1) + n.BetaA*float64(elems)
}

// CheckpointCost returns the cost of one checkpoint write covering elems
// float64 elements of accumulator state (plus negligible progress cursors):
// a fixed open/sync overhead and a streaming write to node-local storage.
func (n NetModel) CheckpointCost(elems int64) float64 {
	return n.CheckpointAlpha + n.CheckpointBeta*float64(elems)
}

// SyncComputeCost returns the cost of multiplying nnz nonzeros against K
// dense columns with the row-major buffered kernel spread over `threads`
// threads.
func (n NetModel) SyncComputeCost(nnz int64, k, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	return n.GammaCore * float64(nnz) * float64(k) / float64(threads)
}

// AsyncComputeCost returns the cost of the column-major atomic-heavy kernel
// over nnz nonzeros, K columns, `stripes` stripes, and `threads` async
// compute threads.
func (n NetModel) AsyncComputeCost(nnz int64, k, threads, stripes int) float64 {
	if threads < 1 {
		threads = 1
	}
	return n.GammaCore*n.AsyncPenalty*float64(nnz)*float64(k)/float64(threads) +
		n.KappaStripe*float64(stripes)
}

// Breakdown is the per-node virtual-time ledger, mirroring the categories of
// the paper's Figure 10. The synchronous and asynchronous halves execute in
// parallel (different thread groups), so a node's makespan is Other plus the
// longer of the two halves.
type Breakdown struct {
	SyncComm  float64
	SyncComp  float64
	AsyncComm float64
	AsyncComp float64
	Other     float64
	// SyncOverlap is the portion of the synchronous half hidden by
	// pipelining stripe multicasts with row-panel compute (the non-blocking
	// MPI_Ibcast overlap of the paper's Algorithm 1). Pipelining changes
	// none of the category totals above; the overlap credit is what turns
	// the serial sum SyncComm + SyncComp into the pipelined sync-half
	// makespan, so zeroing it recovers the serial accounting of the same
	// run. It never exceeds min(SyncComm, SyncComp) and is zero for the
	// SDDMM executor and for every baseline, which do not pipeline.
	SyncOverlap float64
	// Checkpoint is virtual time spent writing crash-recovery checkpoints
	// of the rank's C accumulator state to node-local storage. Serial with
	// both halves (the snapshot must be consistent, so compute is fenced
	// while it streams out); zero unless recovery is enabled.
	Checkpoint float64
	// Recovery is virtual time a survivor spends re-executing a dead rank's
	// lost work: re-fetching its inputs and recomputing its panels/stripes.
	// It happens after the post-run fence, strictly serial with the rank's
	// own halves; zero in fault-free and fail-clean runs.
	Recovery float64
}

// NodeTime returns the node's modeled makespan.
func (b Breakdown) NodeTime() float64 {
	sync := b.SyncComm + b.SyncComp - b.SyncOverlap
	async := b.AsyncComm + b.AsyncComp
	if async > sync {
		sync = async
	}
	return b.Other + b.Checkpoint + b.Recovery + sync
}

// field returns the ledger slot for a category, or nil if unknown.
func (b *Breakdown) field(cat Category) *float64 {
	switch cat {
	case SyncComm:
		return &b.SyncComm
	case SyncComp:
		return &b.SyncComp
	case AsyncComm:
		return &b.AsyncComm
	case AsyncComp:
		return &b.AsyncComp
	case Other:
		return &b.Other
	case Overlap:
		return &b.SyncOverlap
	case Checkpoint:
		return &b.Checkpoint
	case Recovery:
		return &b.Recovery
	}
	return nil
}

// Plus returns the category-wise sum of two breakdowns.
func (b Breakdown) Plus(o Breakdown) Breakdown {
	return Breakdown{
		SyncComm:    b.SyncComm + o.SyncComm,
		SyncComp:    b.SyncComp + o.SyncComp,
		AsyncComm:   b.AsyncComm + o.AsyncComm,
		AsyncComp:   b.AsyncComp + o.AsyncComp,
		Other:       b.Other + o.Other,
		SyncOverlap: b.SyncOverlap + o.SyncOverlap,
		Checkpoint:  b.Checkpoint + o.Checkpoint,
		Recovery:    b.Recovery + o.Recovery,
	}
}

// Category labels a Breakdown component for charging.
type Category int

// Categories of virtual time, matching Figure 10, plus the Overlap credit
// of the pipelined sync path (charged once per run by the executor, already
// in post-straggler applied seconds — fault injectors scale it by 1).
const (
	SyncComm Category = iota
	SyncComp
	AsyncComm
	AsyncComp
	Other
	Overlap
	// Checkpoint and Recovery are the fail-recover categories: checkpoint
	// writes and survivor re-execution. Like Other they are serial with both
	// halves, and fault injectors scale them by 1 (local storage and the
	// recovery protocol are not subject to network stragglers).
	Checkpoint
	Recovery
)

// String returns the Figure 10 label of the category.
func (c Category) String() string {
	switch c {
	case SyncComm:
		return "Sync Comm"
	case SyncComp:
		return "Sync Comp"
	case AsyncComm:
		return "Async Comm"
	case AsyncComp:
		return "Async Comp"
	case Other:
		return "Other"
	case Overlap:
		return "Sync Overlap"
	case Checkpoint:
		return "Checkpoint"
	case Recovery:
		return "Recovery"
	}
	return "Unknown"
}
