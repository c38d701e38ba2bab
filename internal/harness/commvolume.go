package harness

import (
	"fmt"
	"math"

	"twoface/internal/gen"
)

// CommVolume is an extension experiment beyond the paper's figures: it
// measures the *actual* bytes each algorithm moves (counted by the cluster's
// transfer primitives, not by the cost model) and reports each algorithm's
// received volume relative to DS2's. This is the mechanism behind the
// paper's speedups made explicit: Two-Face wins exactly where it moves a
// small fraction of the dense input.
func (c Config) CommVolume(k int) *Table {
	cc := c.normalize()
	algos := []Algo{AlgoDS2, AlgoAllgather, AlgoAsyncFine, AlgoTwoFace}
	cols := make([]string, len(algos))
	for i, a := range algos {
		cols[i] = string(a)
	}
	t := NewTable(fmt.Sprintf("Extension: received data volume relative to DS2, K=%d, p=%d", k, cc.Nodes),
		MatrixNames(), cols)
	for i, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		base, err := cc.runWithVolume(AlgoDS2, w, k)
		if err != nil || base == 0 {
			continue
		}
		for j, algo := range algos {
			vol, err := cc.runWithVolume(algo, w, k)
			if err != nil {
				t.Set(i, j, math.NaN(), "%.3f")
				continue
			}
			t.Set(i, j, float64(vol)/float64(base), "%.3f")
		}
	}
	t.Note = "Values are total bytes received across nodes, normalized to DS2 (which transfers essentially all of B to every node)."
	return t
}

// runWithVolume runs one algorithm in timing-only mode and returns the
// cluster-wide bytes moved.
func (c Config) runWithVolume(algo Algo, w *Workload, k int) (int64, error) {
	opts := c.options(w, k, c.normalize().Nodes)
	opts.TimingOnly = true
	res, _, err := execute(algo, w, opts)
	if err != nil {
		return 0, err
	}
	return res.TotalTransfer.TotalBytes(), nil
}
