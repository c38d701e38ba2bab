// Package baselines implements the SpMM algorithms the paper compares
// Two-Face against (Table 4):
//
//   - Dense Shifting DS(c): Bharadwaj et al.'s replicate-then-shift
//     algorithm, the paper's main baseline, with replication factor c.
//   - Allgather: full replication of the dense input with a collective.
//   - Async Coarse-Grained: each node one-sidedly fetches the whole dense
//     blocks it touches.
//   - Async Fine-Grained: Two-Face with every remote stripe forced
//     asynchronous (used in Figure 2's motivation study).
//
// All algorithms share the 1D partitioning of package core and run on the
// simulated cluster, so their outputs are bit-comparable with Two-Face and
// the sequential reference, and their virtual-time ledgers are directly
// comparable with Two-Face's.
package baselines

import (
	"errors"
	"fmt"
	"time"

	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/dense"
	"twoface/internal/sparse"
)

// ErrOutOfMemory reports that an algorithm's replication strategy exceeds
// the per-node memory budget — the condition that blanks out data points in
// the paper's figures (e.g. DS8 at K=512 for half the matrices, Allgather on
// kmer at K=128).
var ErrOutOfMemory = errors.New("baselines: replication exceeds per-node memory budget")

// modelThreads is the modeled per-node compute thread count (Table 2's 128).
const modelThreads = 128

// Options configures a baseline run. Zero values take defaults.
type Options struct {
	// MemBudgetElems is the per-node buffer budget in float64 elements;
	// the default matches core.Params (48 Mi elements, the paper's 256 GiB
	// nodes at 1/512 scale).
	MemBudgetElems int64
	// Workers is the real goroutine count for local kernels. Default 4.
	Workers int
	// SkipCompute runs in timing-only mode: transfers and virtual-time
	// charges happen, arithmetic is skipped and C stays zero (see
	// core.ExecOptions.SkipCompute).
	SkipCompute bool
}

func (o Options) normalize() Options {
	if o.MemBudgetElems == 0 {
		o.MemBudgetElems = 48 << 20
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	return o
}

// nodeA is one node's slice of A, bucketed by the owner of each nonzero's
// column, with rows localized to the node and columns localized to the
// owning block. perBlock[j] multiplies against block j of B.
type nodeA struct {
	rows     int
	perBlock []*sparse.CSR
	blockNNZ []int64
}

// buildNodeA distributes A for the block algorithms.
func buildNodeA(a *sparse.COO, p int) ([]*nodeA, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	nodes := make([]*nodeA, p)
	rowBlocks := dense.Partition(int(a.NumRows), p)
	colBlocks := dense.Partition(int(a.NumCols), p)
	buckets := make([][]*sparse.COO, p)
	for i := 0; i < p; i++ {
		nodes[i] = &nodeA{rows: rowBlocks[i].Len(), blockNNZ: make([]int64, p)}
		buckets[i] = make([]*sparse.COO, p)
		for j := 0; j < p; j++ {
			buckets[i][j] = sparse.NewCOO(int32(rowBlocks[i].Len()), int32(colBlocks[j].Len()), 0)
		}
	}
	for _, e := range a.Entries {
		i := dense.OwnerOf(int(a.NumRows), p, int(e.Row))
		j := dense.OwnerOf(int(a.NumCols), p, int(e.Col))
		buckets[i][j].Append(e.Row-int32(rowBlocks[i].Lo), e.Col-int32(colBlocks[j].Lo), e.Val)
	}
	for i := 0; i < p; i++ {
		nodes[i].perBlock = make([]*sparse.CSR, p)
		for j := 0; j < p; j++ {
			nodes[i].perBlock[j] = buckets[i][j].ToCSR()
			nodes[i].blockNNZ[j] = int64(buckets[i][j].NNZ())
		}
	}
	return nodes, nil
}

// validate checks shared input invariants and returns the block partition.
func validate(a *sparse.COO, b *dense.Matrix, clu *cluster.Cluster) error {
	if b.Rows != int(a.NumCols) {
		return fmt.Errorf("baselines: B has %d rows, want %d", b.Rows, a.NumCols)
	}
	if int32(clu.P()) > a.NumCols || int32(clu.P()) > a.NumRows {
		return fmt.Errorf("baselines: more nodes (%d) than matrix dimensions (%dx%d)", clu.P(), a.NumRows, a.NumCols)
	}
	return nil
}

// getOrDegrade pulls one contiguous region from a peer's window
// one-sidedly. When an attached fault plan exhausts the retry budget for
// that get, it degrades to the reliable synchronous path instead of
// failing the run: the same elements are re-fetched via SyncFallbackPull
// and the resend is charged to SyncComm as "degrade.refetch", so every
// baseline completes bit-exactly under survivable fault plans just like
// Two-Face. Reports whether the degraded path was taken; on the normal
// path the caller charges the one-sided cost itself.
func getOrDegrade(r *cluster.Rank, target int, name string, reg cluster.Region, dst []float64) (bool, error) {
	_, err := r.Get(target, name, reg, dst)
	if err == nil {
		return false, nil
	}
	if !errors.Is(err, cluster.ErrRetryExhausted) {
		return false, err
	}
	if _, err := r.SyncFallbackPull(target, name, []cluster.Region{reg}, dst); err != nil {
		return false, err
	}
	r.ChargeOp(cluster.SyncComm, "degrade.refetch", r.Net().MulticastCost(reg.Elems, 1))
	return true, nil
}

// maxBlockElems returns the size in elements of the largest B block.
func maxBlockElems(numCols int32, p, k int) int64 {
	var max int64
	for _, blk := range dense.Partition(int(numCols), p) {
		if e := int64(blk.Len()) * int64(k); e > max {
			max = e
		}
	}
	return max
}

func finishResult(clu *cluster.Cluster, c *dense.Matrix, start time.Time) *core.Result {
	res := &core.Result{
		C:              c,
		Breakdowns:     clu.Breakdowns(),
		ModeledSeconds: clu.TotalTime(),
		Wall:           time.Since(start),
	}
	res.FillObservability(clu)
	return res
}
