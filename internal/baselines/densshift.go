package baselines

import (
	"fmt"
	"time"

	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/dense"
	"twoface/internal/sparse"
)

// DenseShift runs the dense-shifting algorithm DS(c) of Bharadwaj et al.
// (paper sections 6.3, Table 4): nodes are grouped into p/c replication
// groups; an initial allgather within each group leaves every node holding
// its group's c dense blocks; then p/c computation steps alternate local
// SpMM on the held blocks with a cyclic shift of the whole held set c ranks
// down the ring (MPI_Sendrecv).
//
// c must divide the node count. DS(1) degenerates to pure block rotation
// with no replication.
func DenseShift(a *sparse.COO, b *dense.Matrix, clu *cluster.Cluster, c int, opts Options) (*core.Result, error) {
	start := time.Now()
	opts = opts.normalize()
	p := clu.P()
	if c < 1 || p%c != 0 {
		return nil, fmt.Errorf("baselines: replication factor %d must divide node count %d", c, p)
	}
	if err := validate(a, b, clu); err != nil {
		return nil, err
	}
	k := b.Cols
	// Memory check: each node buffers c dense blocks (its replicated held
	// set) on top of its own block.
	if int64(c)*maxBlockElems(a.NumCols, p, k) > opts.MemBudgetElems {
		return nil, fmt.Errorf("%w: DS%d holds %d block elems, budget %d",
			ErrOutOfMemory, c, int64(c)*maxBlockElems(a.NumCols, p, k), opts.MemBudgetElems)
	}
	nodes, err := buildNodeA(a, p)
	if err != nil {
		return nil, err
	}
	colBlocks := dense.Partition(int(a.NumCols), p)
	rowBlocks := dense.Partition(int(a.NumRows), p)
	out := dense.New(int(a.NumRows), k)
	groups := p / c

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

		// Initial intra-group allgather: pull the group's blocks from their
		// owners' windows. The ring-allgather cost covers the c-1 remote
		// blocks.
		group := r.ID / c
		held := make([][]float64, c) // held[j] = block group*c+j
		for j := 0; j < c; j++ {
			owner := group*c + j
			ownerBlock := colBlocks[owner]
			buf := make([]float64, ownerBlock.Len()*k)
			if owner == r.ID {
				// The node's own block never crosses the network.
				copy(buf, b.RowRange(ownerBlock.Lo, ownerBlock.Hi))
			} else if _, err := getOrDegrade(r, owner, "B", cluster.Region{Off: 0, Elems: int64(len(buf))}, buf); err != nil {
				return err
			}
			held[j] = buf
		}
		if c > 1 {
			r.ChargeOp(cluster.SyncComm, "allgather.group", net.AllgatherCost(c, maxBlockElems(a.NumCols, p, k)))
		}

		// p/c compute+shift steps. At step t this node holds the blocks of
		// group (group - t) mod groups.
		for t := 0; t < groups; t++ {
			holdGroup := ((group-t)%groups + groups) % groups
			var stepNNZ int64
			for j := 0; j < c; j++ {
				blockID := holdGroup*c + j
				if na.blockNNZ[blockID] == 0 {
					continue
				}
				if !opts.SkipCompute {
					bBlock, err := dense.FromData(colBlocks[blockID].Len(), k, held[j])
					if err != nil {
						return err
					}
					if err := na.perBlock[blockID].MulIntoParallel(bBlock, cView, opts.Workers); err != nil {
						return err
					}
				}
				stepNNZ += na.blockNNZ[blockID]
			}
			if stepNNZ > 0 {
				r.ChargeOp(cluster.SyncComp, "compute.sync.step", net.SyncComputeCost(stepNNZ, k, modelThreads))
			}
			if t == groups-1 {
				break
			}
			// Shift the held set c ranks down the ring; the receiving
			// node's held set comes from c ranks up.
			sendBuf := flatten(held)
			recvBuf, err := r.Sendrecv(sendBuf, (r.ID+c)%p, (r.ID-c+p)%p)
			if err != nil {
				return err
			}
			// Unpack: the incoming set belongs to group (group - t - 1).
			nextGroup := ((group-t-1)%groups + groups) % groups
			held = unflatten(recvBuf, colBlocks, nextGroup, c, k)
			r.ChargeOp(cluster.SyncComm, "sendrecv.shift", net.SendrecvCost(int64(len(sendBuf))))
		}
		return r.Barrier()
	})
	if runErr != nil {
		return nil, runErr
	}
	return finishResult(clu, out, start), nil
}

func flatten(held [][]float64) []float64 {
	var n int
	for _, h := range held {
		n += len(h)
	}
	out := make([]float64, 0, n)
	for _, h := range held {
		out = append(out, h...)
	}
	return out
}

func unflatten(buf []float64, colBlocks []dense.Block, group, c, k int) [][]float64 {
	held := make([][]float64, c)
	off := 0
	for j := 0; j < c; j++ {
		n := colBlocks[group*c+j].Len() * k
		held[j] = buf[off : off+n]
		off += n
	}
	return held
}
