package baselines

import (
	"fmt"
	"time"

	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/dense"
	"twoface/internal/sparse"
)

// Allgather runs the full-replication baseline: every node broadcasts its
// dense block to all others with MPI_Allgather, then computes its whole row
// block locally. Simple and sparsity-unaware — and memory-hungry: the
// replicated B must fit on every node, which is exactly what fails for kmer
// at K=128 in the paper (Figure 2's missing bar).
func Allgather(a *sparse.COO, b *dense.Matrix, clu *cluster.Cluster, opts Options) (*core.Result, error) {
	start := time.Now()
	opts = opts.normalize()
	p := clu.P()
	if err := validate(a, b, clu); err != nil {
		return nil, err
	}
	k := b.Cols
	totalElems := int64(a.NumCols) * int64(k)
	if totalElems > opts.MemBudgetElems {
		return nil, fmt.Errorf("%w: full replication needs %d elems, budget %d",
			ErrOutOfMemory, totalElems, opts.MemBudgetElems)
	}
	nodes, err := buildNodeA(a, p)
	if err != nil {
		return nil, err
	}
	colBlocks := dense.Partition(int(a.NumCols), p)
	rowBlocks := dense.Partition(int(a.NumRows), p)
	out := dense.New(int(a.NumRows), k)

	clu.Reset()
	runErr := clu.Run(func(r *cluster.Rank) error {
		net := r.Net()
		na := nodes[r.ID]
		cView := out.SliceRows(rowBlocks[r.ID])
		r.ChargeOp(cluster.Other, "setup", net.SetupBase+net.SetupPerStripe*float64(p))

		all, err := r.Allgather(b.RowRange(colBlocks[r.ID].Lo, colBlocks[r.ID].Hi))
		if err != nil {
			return err
		}
		r.ChargeOp(cluster.SyncComm, "allgather", net.AllgatherCost(p, maxBlockElems(a.NumCols, p, k)))

		var nnz int64
		for j := 0; j < p; j++ {
			if na.blockNNZ[j] == 0 {
				continue
			}
			if !opts.SkipCompute {
				bBlock, err := dense.FromData(colBlocks[j].Len(), k, all[j])
				if err != nil {
					return err
				}
				if err := na.perBlock[j].MulIntoParallel(bBlock, cView, opts.Workers); err != nil {
					return err
				}
			}
			nnz += na.blockNNZ[j]
		}
		if nnz > 0 {
			r.ChargeOp(cluster.SyncComp, "compute.sync.block", net.SyncComputeCost(nnz, k, modelThreads))
		}
		return r.Barrier()
	})
	if runErr != nil {
		return nil, runErr
	}
	return finishResult(clu, out, start), nil
}

// AsyncCoarse runs the asynchronous coarse-grained baseline: each node
// issues one-sided MPI_Get operations for every whole dense block containing
// at least one column it touches, then computes locally. Sparsity-aware
// only at block granularity.
func AsyncCoarse(a *sparse.COO, b *dense.Matrix, clu *cluster.Cluster, opts Options) (*core.Result, error) {
	start := time.Now()
	opts = opts.normalize()
	p := clu.P()
	if err := validate(a, b, clu); err != nil {
		return nil, err
	}
	k := b.Cols
	nodes, err := buildNodeA(a, p)
	if err != nil {
		return nil, err
	}
	colBlocks := dense.Partition(int(a.NumCols), p)
	rowBlocks := dense.Partition(int(a.NumRows), p)

	// Memory check: the worst node buffers every block it touches.
	for i := 0; i < p; i++ {
		var need int64
		for j := 0; j < p; j++ {
			if nodes[i].blockNNZ[j] > 0 || j == i {
				need += int64(colBlocks[j].Len()) * int64(k)
			}
		}
		if need > opts.MemBudgetElems {
			return nil, fmt.Errorf("%w: node %d needs %d elems of dense blocks, budget %d",
				ErrOutOfMemory, i, need, opts.MemBudgetElems)
		}
	}
	out := dense.New(int(a.NumRows), k)

	clu.Reset()
	runErr := clu.Run(func(r *cluster.Rank) error {
		net := r.Net()
		na := nodes[r.ID]
		cView := out.SliceRows(rowBlocks[r.ID])
		r.Expose("B", b.RowRange(colBlocks[r.ID].Lo, colBlocks[r.ID].Hi))
		if err := r.Barrier(); err != nil {
			return err
		}
		r.ChargeOp(cluster.Other, "setup", net.SetupBase+net.SetupPerStripe*float64(p))

		var nnz int64
		for j := 0; j < p; j++ {
			if na.blockNNZ[j] == 0 {
				continue
			}
			blockElems := int64(colBlocks[j].Len()) * int64(k)
			var data []float64
			if j == r.ID {
				data = b.RowRange(colBlocks[j].Lo, colBlocks[j].Hi)
			} else {
				buf := make([]float64, blockElems)
				degraded, err := getOrDegrade(r, j, "B", cluster.Region{Off: 0, Elems: blockElems}, buf)
				if err != nil {
					return err
				}
				if !degraded {
					r.ChargeOp(cluster.AsyncComm, "get.block", net.OneSidedCost(1, blockElems))
				}
				data = buf
			}
			if !opts.SkipCompute {
				bBlock, err := dense.FromData(colBlocks[j].Len(), k, data)
				if err != nil {
					return err
				}
				if err := na.perBlock[j].MulIntoParallel(bBlock, cView, opts.Workers); err != nil {
					return err
				}
			}
			nnz += na.blockNNZ[j]
		}
		if nnz > 0 {
			r.ChargeOp(cluster.AsyncComp, "compute.async.block", net.SyncComputeCost(nnz, k, modelThreads))
		}
		return r.Barrier()
	})
	if runErr != nil {
		return nil, runErr
	}
	return finishResult(clu, out, start), nil
}

// AsyncFine runs the asynchronous fine-grained baseline: Two-Face's executor
// with every remote stripe forced asynchronous (paper sections 2.3 and 6.3).
// The stripe width w follows the same Table 1 scaling as Two-Face.
func AsyncFine(a *sparse.COO, b *dense.Matrix, clu *cluster.Cluster, w int32, opts Options) (*core.Result, error) {
	opts = opts.normalize()
	frac := 1.0
	params := core.Params{
		P: clu.P(), K: b.Cols, W: w,
		ForceSplit:     &frac,
		MemBudgetElems: opts.MemBudgetElems,
	}
	prep, err := core.Preprocess(a, params)
	if err != nil {
		return nil, err
	}
	return core.Exec(prep, b, clu, core.ExecOptions{AsyncWorkers: opts.Workers, SyncWorkers: opts.Workers, SkipCompute: opts.SkipCompute})
}
