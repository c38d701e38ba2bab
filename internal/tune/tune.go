// Package tune implements the installation-time parameter search of the
// paper's section 5.3: "the runtime algorithm is parameterized by the number
// of threads assigned to sync/async stripe processing, the aggressiveness of
// row coalescing, the height of the row panels, and the width of the
// stripes ... these parameters could be determined at installation time."
//
// Tune runs a full-factorial sweep of those knobs on a workload in
// timing-only mode (transfers and modeled time, no arithmetic) and returns
// the best configuration under the virtual-time model.
package tune

import (
	"fmt"
	"sort"

	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/dense"
	"twoface/internal/sparse"
)

// Space is the grid of candidate parameter values. Empty fields take
// defaults derived from the workload (widths) or the paper's Table 2.
type Space struct {
	Widths           []int32
	CoalesceGaps     []int32
	PanelHeights     []int32
	AsyncCompThreads []int
}

// Choice is one evaluated configuration.
type Choice struct {
	W                     int32
	MaxCoalesceGap        int32
	RowPanelHeight        int32
	ModelAsyncCompThreads int
	// Modeled is the configuration's cluster makespan in modeled seconds.
	Modeled float64
}

func (c Choice) String() string {
	return fmt.Sprintf("W=%d gap=%d panel=%d asyncComp=%d -> %.4g s",
		c.W, c.MaxCoalesceGap, c.RowPanelHeight, c.ModelAsyncCompThreads, c.Modeled)
}

// defaultSpace derives a grid around the Table 1/Table 2 defaults. The
// widths are the one the library picks when none is given, core.AutoWidth,
// and its power-of-two neighbours, so the default is always among the
// candidates.
func defaultSpace(cols int32, k int, s Space) Space {
	if len(s.Widths) == 0 {
		w := core.AutoWidth(cols)
		s.Widths = []int32{w / 2, w, w * 2}
	}
	if len(s.CoalesceGaps) == 0 {
		def := int32(127/k) + 1
		s.CoalesceGaps = dedupI32([]int32{1, def, 4 * def})
	}
	if len(s.PanelHeights) == 0 {
		s.PanelHeights = []int32{8, 32, 128}
	}
	if len(s.AsyncCompThreads) == 0 {
		s.AsyncCompThreads = []int{4, 8, 16}
	}
	return s
}

// Tune evaluates every configuration in the (defaulted) space on the given
// workload and returns the best choice plus all evaluations sorted by
// modeled time. The dense input's values do not matter in timing-only mode,
// so only its shape is built. It drives core directly because it sweeps
// MaxCoalesceGap and ModelAsyncCompThreads, which the library facade does
// not expose.
func Tune(a *sparse.COO, k, p int, net cluster.NetModel, space Space) (Choice, []Choice, error) {
	if k < 1 || p < 1 {
		return Choice{}, nil, fmt.Errorf("tune: invalid K=%d or p=%d", k, p)
	}
	space = defaultSpace(a.NumCols, k, space)
	b := dense.New(int(a.NumCols), k)
	coef := core.CoefficientsFromNet(net, 8)

	var all []Choice
	for _, w := range space.Widths {
		for _, gap := range space.CoalesceGaps {
			for _, panel := range space.PanelHeights {
				for _, act := range space.AsyncCompThreads {
					params := core.Params{
						P: p, K: k, W: w,
						Coef:                  coef,
						MaxCoalesceGap:        gap,
						RowPanelHeight:        panel,
						ModelAsyncCompThreads: act,
						ModelSyncThreads:      maxI(1, 128-2-act),
					}
					prep, err := core.Preprocess(a, params)
					if err != nil {
						return Choice{}, nil, fmt.Errorf("tune: preprocessing W=%d: %w", w, err)
					}
					clu, err := cluster.New(p, net)
					if err != nil {
						return Choice{}, nil, err
					}
					res, err := core.Exec(prep, b, clu, core.ExecOptions{SkipCompute: true})
					if err != nil {
						return Choice{}, nil, fmt.Errorf("tune: executing W=%d: %w", w, err)
					}
					all = append(all, Choice{
						W: w, MaxCoalesceGap: gap, RowPanelHeight: panel,
						ModelAsyncCompThreads: act, Modeled: res.ModeledSeconds,
					})
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Modeled < all[j].Modeled })
	return all[0], all, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func dedupI32(vs []int32) []int32 {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
