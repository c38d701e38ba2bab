package harness

import (
	"fmt"
	"math"

	"twoface/internal/gen"
)

// SeedSweep is an extension experiment: it repeats the Figure 8 headline
// comparison (Two-Face vs DS2) across several generator seeds and reports
// the mean, min, and max speedup per matrix. The paper averages five runs of
// the same matrix; here the matrices themselves are synthetic draws, so the
// spread across seeds is the reproduction's error bar — it shows the shape
// claims are properties of the matrix *class*, not of one lucky draw.
func (c Config) SeedSweep(k int, seeds []uint64) *Table {
	cc := c.normalize()
	if len(seeds) == 0 {
		seeds = []uint64{42, 43, 44}
	}
	t := NewTable(
		fmt.Sprintf("Extension: Two-Face speedup over DS2 across %d generator seeds, K=%d, p=%d", len(seeds), k, cc.Nodes),
		MatrixNames(),
		[]string{"mean", "min", "max"},
	)
	for i, s := range gen.Specs() {
		var sum float64
		min, max := math.Inf(1), math.Inf(-1)
		n := 0
		for _, seed := range seeds {
			cfg := cc
			cfg.Seed = seed
			w := cfg.BuildWorkload(s)
			ds := cfg.Run(AlgoDS2, w, k, cfg.Nodes)
			tf := cfg.Run(AlgoTwoFace, w, k, cfg.Nodes)
			sp := Speedup(ds, tf)
			if math.IsNaN(sp) {
				continue
			}
			sum += sp
			min = math.Min(min, sp)
			max = math.Max(max, sp)
			n++
		}
		if n == 0 {
			continue
		}
		t.Set(i, 0, sum/float64(n), "%.2f")
		t.Set(i, 1, min, "%.2f")
		t.Set(i, 2, max, "%.2f")
	}
	t.Note = "Speedup > 1: Two-Face wins. Spread across seeds bounds the generator-draw variance of the shape claims."
	return t
}
