package harness

import (
	"fmt"
	"math"

	"twoface"
	"twoface/internal/gen"
)

// MatrixNames lists the evaluation matrices in Table 1 order.
func MatrixNames() []string {
	specs := gen.Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Short
	}
	return names
}

// Table1 renders the matrix inventory: the paper's Table 1 plus the
// generated analog's actual dimensions at this configuration's scale.
func (c Config) Table1() *Table {
	cc := c.normalize()
	specs := gen.Specs()
	rows := make([]string, len(specs))
	for i, s := range specs {
		rows[i] = s.Short
	}
	t := NewTable(
		fmt.Sprintf("Table 1: evaluation matrices (scale %.3g, synthetic analogs)", cc.Scale),
		rows,
		[]string{"rows", "nnz(M)", "avg deg", "stripe W", "paper rows(M)", "paper nnz(M)"},
	)
	for i, s := range specs {
		a := cc.BuildWorkload(s)
		st := a.A.ComputeStats()
		t.Set(i, 0, float64(st.NumRows), "%.0f")
		t.Set(i, 1, float64(st.NNZ)/1e6, "%.3f")
		t.Set(i, 2, st.AvgPerRow, "%.2f")
		t.Set(i, 3, float64(a.W), "%.0f")
		t.Set(i, 4, s.PaperRows()/1e6, "%.2f")
		t.Set(i, 5, s.PaperRows()*s.AvgDeg/1e6, "%.0f")
	}
	return t
}

// Figure2 reproduces the motivation study: speedup of Async Fine-Grained
// over the Allgather collective implementation for K in {32, 128}. Values
// above 1 mean the sparsity-aware side wins. "OOM" marks the paper's
// missing kmer/K=128 collectives bar.
func (c Config) Figure2() *Table {
	cc := c.normalize()
	t := NewTable(
		fmt.Sprintf("Figure 2: Async Fine speedup over Collectives (Allgather), p=%d", cc.Nodes),
		MatrixNames(),
		[]string{"K=32", "K=128"},
	)
	for i, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		for j, k := range []int{32, 128} {
			ag := cc.Run(AlgoAllgather, w, k, cc.Nodes)
			af := cc.Run(AlgoAsyncFine, w, k, cc.Nodes)
			t.Set(i, j, Speedup(ag, af), "%.2f")
		}
	}
	t.Note = "Values > 1: fine-grained one-sided wins; < 1: collectives win. OOM: full replication exceeds node memory."
	return t
}

// SpeedupFigure reproduces Figure 7 (K=32), 8 (K=128), or 9 (K=512): the
// speedup of every algorithm over DS2 per matrix, plus a final avg row
// (geometric mean over matrices where the algorithm ran).
func (c Config) SpeedupFigure(k int) *Table {
	cc := c.normalize()
	rows := append(MatrixNames(), "avg")
	cols := make([]string, len(FigureAlgos))
	for j, a := range FigureAlgos {
		cols[j] = string(a)
	}
	t := NewTable(fmt.Sprintf("Figures 7-9: speedup over DS2, K=%d, p=%d", k, cc.Nodes), rows, cols)
	geo := make([]float64, len(FigureAlgos))
	cnt := make([]int, len(FigureAlgos))
	for i, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		base := cc.Run(AlgoDS2, w, k, cc.Nodes)
		for j, algo := range FigureAlgos {
			var out Outcome
			if algo == AlgoDS2 {
				out = base
			} else {
				out = cc.Run(algo, w, k, cc.Nodes)
			}
			sp := Speedup(base, out)
			t.Set(i, j, sp, "%.2f")
			if !math.IsNaN(sp) {
				geo[j] += math.Log(sp)
				cnt[j]++
			}
		}
	}
	for j := range FigureAlgos {
		if cnt[j] > 0 {
			t.Set(len(rows)-1, j, math.Exp(geo[j]/float64(cnt[j])), "%.2f")
		}
	}
	return t
}

// Table5 reports the absolute modeled execution times of DS2 and Two-Face
// for K in {32, 128, 512} (paper Table 5; seconds on the modeled machine).
func (c Config) Table5() *Table {
	cc := c.normalize()
	var rows []string
	for _, k := range []int{32, 128, 512} {
		rows = append(rows, fmt.Sprintf("K=%d DS2", k), fmt.Sprintf("K=%d Two-Face", k))
	}
	t := NewTable(fmt.Sprintf("Table 5: absolute modeled times (s), p=%d", cc.Nodes), rows, MatrixNames())
	for col, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		for ki, k := range []int{32, 128, 512} {
			ds := cc.Run(AlgoDS2, w, k, cc.Nodes)
			tf := cc.Run(AlgoTwoFace, w, k, cc.Nodes)
			t.Set(2*ki, col, orNaN(ds), "%.4g")
			t.Set(2*ki+1, col, orNaN(tf), "%.4g")
		}
	}
	return t
}

func orNaN(o Outcome) float64 {
	if o.OOM || o.Err != nil {
		return math.NaN()
	}
	return o.Modeled
}

// Figure10 reproduces the execution-time breakdown of DS4 vs Two-Face at
// K=128: for each matrix, the five Figure 10 categories summed over nodes,
// normalized to DS4's total. Two-Face's sync and async halves overlap, so
// its makespan is less than the sum of its categories.
func (c Config) Figure10() *Table {
	cc := c.normalize()
	const k = 128
	cols := []string{
		"DS4 SyncComm", "DS4 SyncComp", "DS4 Other",
		"2F SyncComm", "2F SyncComp", "2F AsyncComm", "2F AsyncComp", "2F Other",
		"2F/DS4 time",
	}
	t := NewTable(fmt.Sprintf("Figure 10: time breakdown DS4 vs Two-Face, K=%d, p=%d (normalized to DS4 total)", k, cc.Nodes),
		MatrixNames(), cols)
	for i, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		ds := cc.Run(AlgoDS4, w, k, cc.Nodes)
		tf := cc.Run(AlgoTwoFace, w, k, cc.Nodes)
		if ds.OOM || ds.Err != nil || tf.OOM || tf.Err != nil {
			continue
		}
		dsSum := sumBreakdowns(ds.Breakdowns)
		tfSum := sumBreakdowns(tf.Breakdowns)
		norm := ds.Modeled
		t.Set(i, 0, dsSum.SyncComm/float64(len(ds.Breakdowns))/norm, "%.3f")
		t.Set(i, 1, dsSum.SyncComp/float64(len(ds.Breakdowns))/norm, "%.3f")
		t.Set(i, 2, dsSum.Other/float64(len(ds.Breakdowns))/norm, "%.3f")
		n := float64(len(tf.Breakdowns))
		t.Set(i, 3, tfSum.SyncComm/n/norm, "%.3f")
		t.Set(i, 4, tfSum.SyncComp/n/norm, "%.3f")
		t.Set(i, 5, tfSum.AsyncComm/n/norm, "%.3f")
		t.Set(i, 6, tfSum.AsyncComp/n/norm, "%.3f")
		t.Set(i, 7, tfSum.Other/n/norm, "%.3f")
		t.Set(i, 8, tf.Modeled/norm, "%.3f")
	}
	return t
}

func sumBreakdowns(bds []twoface.Breakdown) twoface.Breakdown {
	var s twoface.Breakdown
	for _, b := range bds {
		s = s.Plus(b)
	}
	return s
}

// Figure11 reproduces the strong-scaling study: modeled execution time of
// Two-Face and DS1/DS2/DS4/DS8 at K=128 for each node count. One table per
// matrix, rows = algorithms, columns = node counts.
func (c Config) Figure11(nodeCounts []int) []*Table {
	cc := c.normalize()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 2, 4, 8, 16}
	}
	const k = 128
	algos := []Algo{AlgoTwoFace, AlgoDS1, AlgoDS2, AlgoDS4, AlgoDS8}
	var tables []*Table
	for _, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		cols := make([]string, len(nodeCounts))
		for j, p := range nodeCounts {
			cols[j] = fmt.Sprintf("p=%d", p)
		}
		rows := make([]string, len(algos))
		for i, a := range algos {
			rows[i] = string(a)
		}
		t := NewTable(fmt.Sprintf("Figure 11 (%s): modeled time (s) vs node count, K=%d", s.Short, k), rows, cols)
		for j, p := range nodeCounts {
			for i, algo := range algos {
				out := cc.Run(algo, w, k, p)
				if out.Err != nil {
					continue // blank, e.g. a replication factor that does not divide p
				}
				t.Set(i, j, orNaN(out), "%.4g")
			}
		}
		tables = append(tables, t)
	}
	return tables
}

// Table6 reproduces the preprocessing-overhead study at K=128: the modeled
// single-node preprocessing time (with and without I/O) normalized to one
// modeled Two-Face SpMM.
func (c Config) Table6() *Table {
	cc := c.normalize()
	const k = 128
	t := NewTable(fmt.Sprintf("Table 6: preprocessing overhead / one SpMM, K=%d, p=%d", k, cc.Nodes),
		append(MatrixNames(), "avg"), []string{"t_norm_io", "t_norm"})
	var sumIO, sum float64
	var n int
	for i, s := range gen.Specs() {
		w := cc.BuildWorkload(s)
		tf := cc.Run(AlgoTwoFace, w, k, cc.Nodes)
		if tf.Err != nil || tf.OOM || tf.Prep == nil || tf.Modeled == 0 {
			continue
		}
		io := tf.Prep.ModeledPrepWithIOSeconds / tf.Modeled
		no := tf.Prep.ModeledPrepSeconds / tf.Modeled
		t.Set(i, 0, io, "%.2f")
		t.Set(i, 1, no, "%.2f")
		sumIO += io
		sum += no
		n++
	}
	if n > 0 {
		t.Set(len(MatrixNames()), 0, sumIO/float64(n), "%.2f")
		t.Set(len(MatrixNames()), 1, sum/float64(n), "%.2f")
	}
	return t
}

// Figure12 reproduces the sensitivity study: Two-Face's modeled time with
// perturbed preprocessing-model coefficients, relative to the default
// coefficients, averaged over the paper's three representative matrices
// (web: best case, twitter: worst case, stokes: median). Three 3x3 grids:
// (alphaA, betaA), (alphaS, betaS), (gammaA, kappaA), each scaled by
// {0.8, 1.0, 1.25}.
func (c Config) Figure12() []*Table {
	cc := c.normalize()
	const k = 128
	factors := []float64{0.8, 1.0, 1.25}
	reps := []string{"web", "twitter", "stokes"}

	type pairDef struct {
		name  string
		apply func(coef twoface.Coefficients, fRow, fCol float64) twoface.Coefficients
	}
	pairs := []pairDef{
		{"alphaA (rows) x betaA (cols)", func(m twoface.Coefficients, fr, fc float64) twoface.Coefficients {
			m.AlphaA *= fr
			m.BetaA *= fc
			return m
		}},
		{"alphaS (rows) x betaS (cols)", func(m twoface.Coefficients, fr, fc float64) twoface.Coefficients {
			m.AlphaS *= fr
			m.BetaS *= fc
			return m
		}},
		{"gammaA (rows) x kappaA (cols)", func(m twoface.Coefficients, fr, fc float64) twoface.Coefficients {
			m.GammaA *= fr
			m.KappaA *= fc
			return m
		}},
	}

	// Baseline runs with default coefficients.
	baseTimes := map[string]float64{}
	workloads := map[string]*Workload{}
	for _, name := range reps {
		spec, err := gen.ByName(name)
		if err != nil {
			continue
		}
		w := cc.BuildWorkload(spec)
		workloads[name] = w
		out := cc.Run(AlgoTwoFace, w, k, cc.Nodes)
		if out.Err == nil && !out.OOM {
			baseTimes[name] = out.Modeled
		}
	}

	var tables []*Table
	for _, pd := range pairs {
		rows := []string{"0.8x", "1.0x", "1.25x"}
		t := NewTable(fmt.Sprintf("Figure 12: sensitivity, %s (relative modeled time, avg of web/twitter/stokes)", pd.name),
			rows, rows)
		for ri, fr := range factors {
			for ci, fc := range factors {
				var sum float64
				var n int
				for _, name := range reps {
					w, ok := workloads[name]
					if !ok || baseTimes[name] == 0 {
						continue
					}
					coef := pd.apply(cc.Coef(), fr, fc)
					out := cc.runPerturbed(w, k, coef)
					if out.Err == nil && !out.OOM && out.Modeled > 0 {
						sum += out.Modeled / baseTimes[name]
						n++
					}
				}
				if n > 0 {
					t.Set(ri, ci, sum/float64(n), "%.2f")
				}
			}
		}
		tables = append(tables, t)
	}
	return tables
}

// runPerturbed runs Two-Face with explicit classifier coefficients (the
// machine model stays at the default — that is the whole point of the
// sensitivity study).
func (c Config) runPerturbed(w *Workload, k int, coef twoface.Coefficients) Outcome {
	opts := c.options(w, k, c.normalize().Nodes)
	opts.Coefficients = &coef
	return run(AlgoTwoFace, w, opts)
}
