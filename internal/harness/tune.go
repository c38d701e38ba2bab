package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"twoface/internal/core"
	"twoface/internal/gen"
)

// modelThreads is Table 2's per-node thread budget: 120 sync-compute
// threads plus 8 async-compute threads. The search moves threads between the
// two halves, so every grid point models the same node, and the point with 8
// async-compute threads is the configuration the library ships.
const modelThreads = 120 + 8

// tuneChoice is one point of the section 5.3 grid and its modeled makespan.
type tuneChoice struct {
	W, Gap, Panel int32
	AsyncComp     int
	Modeled       float64 // seconds
}

// tuneGaps is the search's coalescing-gap axis at K=k: 1, Table 2's default
// d = 127/K+1, and 4d, without repeats (at K=128, d is 1).
func tuneGaps(k int) []int32 {
	def := int32(127/k) + 1
	gaps := []int32{1, def, 4 * def}
	slices.Sort(gaps)
	return slices.Compact(gaps)
}

// shipped reports whether g is Table 2's configuration for w at K=k, the
// Two-Face run of Figure 8 and Table 5.
func (g tuneChoice) shipped(w *Workload, k int) bool {
	return g.W == w.W && g.Gap == int32(127/k)+1 && g.Panel == 32 && g.AsyncComp == 8
}

// tuneGrid evaluates the section 5.3 grid on w at K=k: stripe width W/2, W
// and 2W around the workload's Table 1 W, tuneGaps(k), panel heights 8, 32
// and 128, and 4, 8 or 16 of the node's threads on async compute. It returns
// every point, fastest first; points that tie keep grid order.
func (c Config) tuneGrid(w *Workload, k int) ([]tuneChoice, error) {
	var grid []tuneChoice
	for _, width := range []int32{w.W / 2, w.W, 2 * w.W} {
		for _, gap := range tuneGaps(k) {
			for _, panel := range []int32{8, 32, 128} {
				for _, act := range []int{4, 8, 16} {
					s, err := c.modeled(w, k, func(p *core.Params, _ *core.ExecOptions) {
						p.W, p.MaxCoalesceGap, p.RowPanelHeight = width, gap, panel
						p.ModelAsyncCompThreads, p.ModelSyncThreads = act, modelThreads-act
					})
					if err != nil {
						return nil, fmt.Errorf("harness: tuning %s (W=%d gap=%d panel=%d async=%d): %w",
							w.Spec.Short, width, gap, panel, act, err)
					}
					grid = append(grid, tuneChoice{W: width, Gap: gap, Panel: panel, AsyncComp: act, Modeled: s})
				}
			}
		}
	}
	sort.SliceStable(grid, func(i, j int) bool { return grid[i].Modeled < grid[j].Modeled })
	return grid, nil
}

// Tune reproduces the installation-time parameter search of the paper's
// section 5.3 ("the number of threads assigned to sync/async stripe
// processing, the aggressiveness of row coalescing, the height of the row
// panels, and the width of the stripes ... could be determined at
// installation time"): for each matrix at K=128 on Nodes nodes, it sweeps
// tuneGrid and reports the shipped configuration's modeled time, the best
// point's time and knobs, and their ratio.
func (c Config) Tune() (*Table, error) {
	cc := c.normalize()
	const k = 128
	t := NewTable(fmt.Sprintf("Section 5.3: installation-time parameter search, K=%d, p=%d (modeled us)", k, cc.Nodes),
		MatrixNames(), []string{"default", "best", "W", "gap", "panel", "async thr", "default/best"})
	for i, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		grid, err := cc.tuneGrid(w, k)
		if err != nil {
			return nil, err
		}
		def, best := grid[slices.IndexFunc(grid, func(g tuneChoice) bool { return g.shipped(w, k) })], grid[0]
		t.Set(i, 0, def.Modeled*1e6, "%.4g")
		t.Set(i, 1, best.Modeled*1e6, "%.4g")
		t.Set(i, 2, float64(best.W), "%.0f")
		t.Set(i, 3, float64(best.Gap), "%.0f")
		t.Set(i, 4, float64(best.Panel), "%.0f")
		t.Set(i, 5, float64(best.AsyncComp), "%.0f")
		t.Set(i, 6, def.Modeled/best.Modeled, "%.3f")
	}
	t.Note = fmt.Sprintf("Grid: W/2, W, 2W around Table 1's W x coalescing gaps %s x panel heights 8, 32, 128 x 4, 8, 16\n"+
		"of the node's %d threads on async compute. Default: Table 2's configuration, the Two-Face run of Figure 8\n"+
		"and Table 5. Best: the fastest point, the first in grid order among ties.",
		strings.Join(labelled("%d", tuneGaps(k)), ", "), modelThreads)
	return t, nil
}
